//! Reference computations made apart from the program under test, and
//! the checkers that compare the program's answers against them.
//!
//! The references use only the generator's own accounting, the raw
//! catalog text, and unfiltered scans; the angular distance, the filter
//! and the zone arithmetic are this file's own formulas, not the
//! library's.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use skyloader::skydb::{Row, Value};

/// Column positions in the `objects` table (`skycat::schema`).
pub const COL_ID: usize = 0;
/// Right ascension, degrees.
pub const COL_RA: usize = 2;
/// Declination, degrees.
pub const COL_DEC: usize = 3;
/// `mag_auto`, the column the filtered scans select on.
pub const COL_MAG: usize = 7;

/// Slack on the cone boundary: a row whose two independently computed
/// separations straddle the radius by less than this is ambiguous and is
/// neither required nor forbidden.
const BOUNDARY_EPS_DEG: f64 = 1e-9;

fn int(row: &Row, col: usize) -> Option<i64> {
    match row.get(col) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

fn float(row: &Row, col: usize) -> Option<f64> {
    match row.get(col) {
        Some(Value::Float(v)) => Some(*v),
        _ => None,
    }
}

/// Great-circle distance in degrees by the haversine formula.
pub fn haversine_deg(ra1: f64, dec1: f64, ra2: f64, dec2: f64) -> f64 {
    let (p1, p2) = (dec1.to_radians(), dec2.to_radians());
    let dp = p2 - p1;
    let dl = (ra2 - ra1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    (2.0 * a.sqrt().min(1.0).asin()).to_degrees()
}

/// The zone a declination falls in when `[lo, hi)` is cut into `zones`
/// equal bands (the outermost bands absorb anything beyond the range).
pub fn zone_of(dec: f64, lo: f64, hi: f64, zones: u32) -> u32 {
    let width = (hi - lo) / zones as f64;
    let z = ((dec - lo) / width).floor();
    z.clamp(0.0, (zones - 1) as f64) as u32
}

/// `(ra, dec)` of the first `OBJ` line of every object id in the catalog
/// text: the clean row a correct loader keeps (later duplicates of an id
/// are the injected duplicate-key errors).
pub fn text_positions<'a>(texts: impl IntoIterator<Item = &'a str>) -> HashMap<i64, (f64, f64)> {
    let mut out = HashMap::new();
    for text in texts {
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("OBJ|") else {
                continue;
            };
            let mut f = rest.split('|');
            let (Some(id), _, Some(ra), Some(dec)) = (f.next(), f.next(), f.next(), f.next())
            else {
                continue;
            };
            if let (Ok(id), Ok(ra), Ok(dec)) = (id.parse(), ra.parse(), dec.parse()) {
                out.entry(id).or_insert((ra, dec));
            }
        }
    }
    out
}

/// A 64-bit digest of a row's values, so a reference can tell whether a
/// returned row equals the scanned one without keeping the row.
pub fn digest(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    for v in row {
        match v {
            Value::Null => 0u8.hash(&mut h),
            Value::Int(x) => (1u8, x).hash(&mut h),
            Value::Float(x) => (2u8, x.to_bits()).hash(&mut h),
            Value::Text(x) => (3u8, x).hash(&mut h),
            Value::Timestamp(x) => (4u8, x).hash(&mut h),
            Value::Bool(x) => (5u8, x).hash(&mut h),
        }
    }
    h.finish()
}

/// Whether an answer's row is one the repository may return.
pub trait Known {
    /// True when `row`, returned for object `id`, is allowed.
    fn agrees(&self, id: i64, row: &Row) -> bool;
}

/// An unfiltered scan of `objects`, reduced to what the checks need: each
/// row's digest and `mag_auto`, and the positions sorted by declination.
pub struct Reference {
    rows: HashMap<i64, (u64, Option<f64>)>,
    /// `(dec, ra, id)` sorted by dec, so a cone's candidates are a
    /// contiguous slice (angular distance is never below |Δdec|).
    by_dec: Vec<(f64, f64, i64)>,
}

impl Reference {
    /// Index the rows of an unfiltered `objects` scan.
    pub fn new(scan: Vec<Row>) -> Reference {
        let mut by_dec = Vec::with_capacity(scan.len());
        let mut rows = HashMap::with_capacity(scan.len());
        for row in scan {
            if let (Some(id), Some(ra), Some(dec)) =
                (int(&row, COL_ID), float(&row, COL_RA), float(&row, COL_DEC))
            {
                by_dec.push((dec, ra, id));
                rows.insert(id, (digest(&row), float(&row, COL_MAG)));
            }
        }
        by_dec.sort_by(|a, b| a.0.total_cmp(&b.0));
        Reference { rows, by_dec }
    }

    /// Object ids, sorted.
    pub fn ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.rows.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Whether the scan held object `id`.
    pub fn holds(&self, id: i64) -> bool {
        self.rows.contains_key(&id)
    }

    /// Ids whose separation from the centre is below `radius − eps`
    /// (required) — rows within `eps` of the boundary are left out.
    fn inside(&self, ra: f64, dec: f64, radius_arcmin: f64) -> Vec<i64> {
        let r = radius_arcmin / 60.0;
        let start = self.by_dec.partition_point(|e| e.0 < dec - r);
        self.by_dec[start..]
            .iter()
            .take_while(|e| e.0 <= dec + r)
            .filter(|e| haversine_deg(ra, dec, e.1, e.0) < r - BOUNDARY_EPS_DEG)
            .map(|e| e.2)
            .collect()
    }
}

impl Known for Reference {
    fn agrees(&self, id: i64, row: &Row) -> bool {
        self.rows.get(&id).is_some_and(|e| e.0 == digest(row))
    }
}

/// What a reader running beside an ingest may be returned: a row the
/// preload held must equal its preloaded row; any other row is recorded
/// and must equal its row in the scan made once the ingest has ended.
pub struct Deferred<'a> {
    preloaded: &'a Reference,
    fresh: RefCell<HashMap<i64, u64>>,
}

impl<'a> Deferred<'a> {
    /// Nothing recorded yet.
    pub fn new(preloaded: &'a Reference) -> Deferred<'a> {
        Deferred {
            preloaded,
            fresh: RefCell::new(HashMap::new()),
        }
    }

    /// Every recorded row equals its row in `finale`.
    pub fn settle(&self, finale: &Reference) -> Result<(), String> {
        for (id, d) in self.fresh.borrow().iter() {
            if finale.rows.get(id).map(|e| e.0) != Some(*d) {
                return Err(format!(
                    "object {id}, returned during the ingest, differs from the final scan"
                ));
            }
        }
        Ok(())
    }
}

impl Known for Deferred<'_> {
    fn agrees(&self, id: i64, row: &Row) -> bool {
        if self.preloaded.holds(id) {
            return self.preloaded.agrees(id, row);
        }
        let d = digest(row);
        *self.fresh.borrow_mut().entry(id).or_insert(d) == d
    }
}

fn ids_of(rows: &[Row]) -> Result<Vec<i64>, String> {
    rows.iter()
        .map(|r| int(r, COL_ID).ok_or_else(|| format!("row without an integer id: {r:?}")))
        .collect()
}

fn no_duplicates(ids: &[i64], what: &str) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(ids.len());
    for id in ids {
        if !seen.insert(id) {
            return Err(format!("{what}: object {id} returned twice"));
        }
    }
    Ok(())
}

/// A cone answer: every returned row lies inside the cone by this file's
/// formula and is identical to its row in `may_return`; every row of
/// `must_return` inside the cone is returned. On a quiet repository both
/// references are the same scan, which makes the answer exact.
pub fn check_cone(
    returned: &[Row],
    (ra, dec, radius_arcmin): (f64, f64, f64),
    must_return: &Reference,
    may_return: &dyn Known,
) -> Result<(), String> {
    let what = format!("cone ({ra:.5}, {dec:.5}, {radius_arcmin:.3}')");
    let ids = ids_of(returned)?;
    no_duplicates(&ids, &what)?;
    let r = radius_arcmin / 60.0;
    for (row, id) in returned.iter().zip(&ids) {
        let (Some(ora), Some(odec)) = (float(row, COL_RA), float(row, COL_DEC)) else {
            return Err(format!("{what}: object {id} has no coordinates"));
        };
        let sep = haversine_deg(ra, dec, ora, odec);
        if sep > r + BOUNDARY_EPS_DEG {
            return Err(format!(
                "{what}: object {id} lies {:.6}' from the centre",
                sep * 60.0
            ));
        }
        if !may_return.agrees(*id, row) {
            return Err(format!("{what}: object {id} differs from the scan"));
        }
    }
    let got: HashSet<i64> = ids.into_iter().collect();
    for id in must_return.inside(ra, dec, radius_arcmin) {
        if !got.contains(&id) {
            return Err(format!("{what}: object {id} inside the cone is missing"));
        }
    }
    Ok(())
}

/// A primary-key answer: exactly the scanned row of `id`, with the ra and
/// dec the catalog text gives for it.
pub fn check_pk(
    returned: &[Row],
    id: i64,
    reference: &dyn Known,
    text: &HashMap<i64, (f64, f64)>,
) -> Result<(), String> {
    let [row] = returned else {
        return Err(format!("pk {id}: {} rows returned", returned.len()));
    };
    if !reference.agrees(id, row) {
        return Err(format!("pk {id}: row differs from the scan"));
    }
    let Some(&(ra, dec)) = text.get(&id) else {
        return Err(format!("pk {id}: not in the catalog text"));
    };
    if float(row, COL_RA) != Some(ra) || float(row, COL_DEC) != Some(dec) {
        return Err(format!("pk {id}: ra/dec differ from the catalog text"));
    }
    Ok(())
}

/// This file's own filter: `mag_auto < mag_limit` (SQL semantics: NULL
/// never selects).
pub fn selects(row: &Row, mag_limit: f64) -> bool {
    float(row, COL_MAG).is_some_and(|m| m < mag_limit)
}

/// A filtered-scan answer: every returned row passes this file's filter
/// and is identical to its row in `may_return`; every row of
/// `must_return` that passes is returned.
pub fn check_scan(
    returned: &[Row],
    mag_limit: f64,
    must_return: &Reference,
    may_return: &dyn Known,
) -> Result<(), String> {
    let what = format!("scan mag_auto < {mag_limit:.3}");
    let ids = ids_of(returned)?;
    no_duplicates(&ids, &what)?;
    for (row, id) in returned.iter().zip(&ids) {
        if !selects(row, mag_limit) {
            return Err(format!("{what}: object {id} fails the filter"));
        }
        if !may_return.agrees(*id, row) {
            return Err(format!("{what}: object {id} differs from the scan"));
        }
    }
    let got: HashSet<i64> = ids.into_iter().collect();
    for (id, (_, mag)) in &must_return.rows {
        if mag.is_some_and(|m| m < mag_limit) && !got.contains(id) {
            return Err(format!("{what}: object {id} is missing"));
        }
    }
    Ok(())
}

/// Committed per-table counts equal the generator's loadable counts, and
/// the rows skipped equal the rows it injected as errors.
pub fn check_counts(
    committed: &BTreeMap<String, u64>,
    loadable: &BTreeMap<&'static str, u64>,
    skipped: u64,
    injected: u64,
) -> Result<(), String> {
    for (table, want) in loadable {
        let got = committed.get(*table).copied().unwrap_or(0);
        if got != *want {
            return Err(format!("{table}: {got} rows committed, {want} expected"));
        }
    }
    if skipped != injected {
        return Err(format!(
            "{skipped} rows skipped, {injected} injected as errors"
        ));
    }
    Ok(())
}

/// Every object row on a zone's shard has a declination that maps to that
/// zone.
pub fn check_zone(rows: &[Row], zone: u32, (lo, hi): (f64, f64), zones: u32) -> Result<(), String> {
    for row in rows {
        let (Some(id), Some(dec)) = (int(row, COL_ID), float(row, COL_DEC)) else {
            return Err(format!("zone {zone}: row without id/dec"));
        };
        let want = zone_of(dec, lo, hi, zones);
        if want != zone {
            return Err(format!(
                "object {id} (dec {dec}) sits in zone {zone}, belongs in zone {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: i64, ra: f64, dec: f64, mag: f64) -> Row {
        vec![
            Value::Int(id),
            Value::Int(1),
            Value::Float(ra),
            Value::Float(dec),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Float(mag),
        ]
    }

    fn sky() -> Vec<Row> {
        (0..400)
            .map(|i| {
                let ra = 150.0 + (i % 20) as f64 * 0.01;
                let dec = -0.1 + (i / 20) as f64 * 0.01;
                obj(i, ra, dec, 14.0 + (i % 17) as f64 * 0.5)
            })
            .collect()
    }

    fn cone_answer(rows: &[Row], c: (f64, f64, f64)) -> Vec<Row> {
        rows.iter()
            .filter(|r| {
                haversine_deg(
                    c.0,
                    c.1,
                    float(r, COL_RA).unwrap(),
                    float(r, COL_DEC).unwrap(),
                ) <= c.2 / 60.0
            })
            .cloned()
            .collect()
    }

    #[test]
    fn haversine_matches_known_separations() {
        assert!((haversine_deg(10.0, 0.0, 11.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((haversine_deg(0.0, 89.0, 180.0, 89.0) - 2.0).abs() < 1e-9);
        let lib = skyloader::skyhtm::separation_deg(150.0, 1.0, 150.2, 1.1);
        assert!((haversine_deg(150.0, 1.0, 150.2, 1.1) - lib).abs() < 1e-9);
    }

    #[test]
    fn cone_check_accepts_exact_answer_and_rejects_perturbations() {
        let rows = sky();
        let reference = Reference::new(rows.clone());
        let c = (150.1, 0.0, 4.0);
        let exact = cone_answer(&rows, c);
        assert!(exact.len() > 10);
        check_cone(&exact, c, &reference, &reference).unwrap();

        // One dropped row.
        let mut dropped = exact.clone();
        dropped.pop();
        assert!(check_cone(&dropped, c, &reference, &reference).is_err());

        // One row outside the radius.
        let mut outside = exact.clone();
        let far = rows
            .iter()
            .find(|r| !exact.contains(r))
            .expect("a row outside the cone")
            .clone();
        outside.push(far);
        assert!(check_cone(&outside, c, &reference, &reference).is_err());

        // A duplicated row.
        let mut dup = exact.clone();
        dup.push(exact[0].clone());
        assert!(check_cone(&dup, c, &reference, &reference).is_err());
    }

    #[test]
    fn pk_check_rejects_a_wrong_row() {
        let rows = sky();
        let reference = Reference::new(rows.clone());
        let text: String = rows
            .iter()
            .map(|r| {
                format!(
                    "OBJ|{}|1|{:.6}|{:.6}|x\n",
                    int(r, COL_ID).unwrap(),
                    float(r, COL_RA).unwrap(),
                    float(r, COL_DEC).unwrap()
                )
            })
            .collect();
        let pos = text_positions([text.as_str()]);
        check_pk(&[rows[7].clone()], 7, &reference, &pos).unwrap();
        assert!(check_pk(&[rows[8].clone()], 7, &reference, &pos).is_err());
        assert!(check_pk(&[], 7, &reference, &pos).is_err());
        let mut moved = rows[7].clone();
        moved[COL_RA] = Value::Float(151.0);
        assert!(check_pk(&[moved], 7, &reference, &pos).is_err());
    }

    #[test]
    fn scan_check_rejects_a_dropped_or_unfiltered_row() {
        let rows = sky();
        let reference = Reference::new(rows.clone());
        let exact: Vec<Row> = rows.iter().filter(|r| selects(r, 16.0)).cloned().collect();
        check_scan(&exact, 16.0, &reference, &reference).unwrap();
        let mut dropped = exact.clone();
        dropped.remove(3);
        assert!(check_scan(&dropped, 16.0, &reference, &reference).is_err());
        let mut extra = exact.clone();
        extra.push(rows.iter().find(|r| !selects(r, 16.0)).unwrap().clone());
        assert!(check_scan(&extra, 16.0, &reference, &reference).is_err());
    }

    #[test]
    fn deferred_rows_are_settled_against_the_final_scan() {
        let rows = sky();
        let preloaded = Reference::new(rows[..200].to_vec());
        let deferred = Deferred::new(&preloaded);
        // A preloaded row must match at once; a fresh one is recorded.
        assert!(deferred.agrees(7, &rows[7]));
        assert!(!deferred.agrees(7, &rows[8]));
        assert!(deferred.agrees(300, &rows[300]));
        // The same fresh object returned again with other values.
        assert!(!deferred.agrees(300, &rows[301]));
        deferred.settle(&Reference::new(rows.clone())).unwrap();
        // The final scan holds another row for the recorded object.
        let mut changed = rows.clone();
        changed[300][COL_MAG] = Value::Float(20.0);
        assert!(deferred.settle(&Reference::new(changed)).is_err());
        // Or does not hold it at all.
        assert!(deferred
            .settle(&Reference::new(rows[..250].to_vec()))
            .is_err());
    }

    #[test]
    fn count_check_rejects_one_dropped_row() {
        let loadable: BTreeMap<&'static str, u64> = [("objects", 10), ("fingers", 40)].into();
        let mut committed: BTreeMap<String, u64> =
            [("objects".to_string(), 10), ("fingers".to_string(), 40)].into();
        check_counts(&committed, &loadable, 3, 3).unwrap();
        assert!(check_counts(&committed, &loadable, 2, 3).is_err());
        *committed.get_mut("fingers").unwrap() -= 1;
        assert!(check_counts(&committed, &loadable, 3, 3).is_err());
    }

    #[test]
    fn zone_check_rejects_a_misplaced_object() {
        let rows = vec![obj(1, 150.0, -0.5, 15.0), obj(2, 150.0, -1.19, 15.0)];
        check_zone(&rows, 0, (-1.2, 1.2), 2).unwrap();
        assert!(check_zone(&rows, 1, (-1.2, 1.2), 2).is_err());
        let misplaced = vec![obj(3, 150.0, 0.5, 15.0)];
        assert!(check_zone(&misplaced, 0, (-1.2, 1.2), 2).is_err());
    }
}
