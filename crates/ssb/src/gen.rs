//! Deterministic SSB data generator.
//!
//! Follows the dbgen distributions that matter for compression and the
//! queries (string attributes are pre-dictionary-encoded to dense
//! integer ids, as the paper does before loading):
//!
//! * 25 nations in 5 regions (`region = nation / 5`), 10 cities per
//!   nation (`city = nation * 10 + j`).
//! * `part`: 5 manufacturers → 25 categories (`mfgr * 5 + i`) → 1000
//!   brands (`category * 40 + j`).
//! * `date`: calendar days 1992-01-01 … 1998-12-31, `d_datekey` in
//!   `yyyymmdd` form.
//! * `lineorder`: `SF × 1.5 M` orders × 1–7 lines. Per-order columns
//!   (`lo_orderkey`, `lo_orderdate`, `lo_custkey`, `lo_ordtotalprice`)
//!   repeat across a run of lines — the run structure Figure 9's
//!   compression waterfall depends on.

use tlc_rng::Rng;

/// Number of regions after dictionary encoding.
pub const REGIONS: usize = 5;
/// Number of nations.
pub const NATIONS: usize = 25;
/// Number of cities.
pub const CITIES: usize = 250;
/// Number of brands.
pub const BRANDS: usize = 1000;
/// Number of part categories.
pub const CATEGORIES: usize = 25;
/// First year in the date dimension.
pub const FIRST_YEAR: i32 = 1992;
/// Last year in the date dimension.
pub const LAST_YEAR: i32 = 1998;

/// The 14 lineorder columns of Figure 9 (in the paper's order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoColumn {
    /// Order key (sorted, 1–7-line runs).
    OrderKey,
    /// Order date FK (per-order runs).
    OrderDate,
    /// Order total price (per-order runs).
    OrdTotalPrice,
    /// Customer FK (per-order runs).
    CustKey,
    /// Part FK (uniform).
    PartKey,
    /// Supplier FK (uniform).
    SuppKey,
    /// Line number within order (1–7).
    LineNumber,
    /// Quantity (1–50).
    Quantity,
    /// Tax (0–8).
    Tax,
    /// Discount (0–10).
    Discount,
    /// Commit date (order date + 30–90 days).
    CommitDate,
    /// Extended price (large uniform).
    ExtendedPrice,
    /// Revenue (large uniform).
    Revenue,
    /// Supply cost (large uniform).
    SupplyCost,
}

impl LoColumn {
    /// All columns in the Figure 9 order.
    pub const ALL: [LoColumn; 14] = [
        LoColumn::OrderKey,
        LoColumn::OrderDate,
        LoColumn::OrdTotalPrice,
        LoColumn::CustKey,
        LoColumn::PartKey,
        LoColumn::SuppKey,
        LoColumn::LineNumber,
        LoColumn::Quantity,
        LoColumn::Tax,
        LoColumn::Discount,
        LoColumn::CommitDate,
        LoColumn::ExtendedPrice,
        LoColumn::Revenue,
        LoColumn::SupplyCost,
    ];

    /// Column name as shown in Figure 9.
    pub fn name(&self) -> &'static str {
        match self {
            LoColumn::OrderKey => "orderkey",
            LoColumn::OrderDate => "orderdate",
            LoColumn::OrdTotalPrice => "ordtotalprice",
            LoColumn::CustKey => "custkey",
            LoColumn::PartKey => "partkey",
            LoColumn::SuppKey => "suppkey",
            LoColumn::LineNumber => "linenumber",
            LoColumn::Quantity => "quantity",
            LoColumn::Tax => "tax",
            LoColumn::Discount => "discount",
            LoColumn::CommitDate => "commitdate",
            LoColumn::ExtendedPrice => "extendedprice",
            LoColumn::Revenue => "revenue",
            LoColumn::SupplyCost => "supplycost",
        }
    }
}

/// The date dimension (columns used by the queries).
#[derive(Debug, Clone, Default)]
pub struct DateDim {
    /// `yyyymmdd` keys, one per calendar day.
    pub datekey: Vec<i32>,
    /// Year.
    pub year: Vec<i32>,
    /// `yyyymm`.
    pub yearmonthnum: Vec<i32>,
    /// Week number in year (1-based).
    pub weeknuminyear: Vec<i32>,
}

/// Geography dimension rows (customer / supplier), dictionary-encoded.
#[derive(Debug, Clone, Default)]
pub struct GeoDim {
    /// City id (0..250).
    pub city: Vec<i32>,
    /// Nation id (0..25).
    pub nation: Vec<i32>,
    /// Region id (0..5).
    pub region: Vec<i32>,
}

/// The part dimension, dictionary-encoded.
#[derive(Debug, Clone, Default)]
pub struct PartDim {
    /// Manufacturer id (0..5).
    pub mfgr: Vec<i32>,
    /// Category id (0..25), `mfgr * 5 + i`.
    pub category: Vec<i32>,
    /// Brand id (0..1000), `category * 40 + j`.
    pub brand1: Vec<i32>,
}

/// The lineorder fact table, SoA.
#[derive(Debug, Clone, Default)]
pub struct LineOrder {
    /// Rows.
    pub len: usize,
    /// Sorted order keys.
    pub orderkey: Vec<i32>,
    /// Order dates (`yyyymmdd`).
    pub orderdate: Vec<i32>,
    /// Order total prices.
    pub ordtotalprice: Vec<i32>,
    /// Customer FKs (1-based).
    pub custkey: Vec<i32>,
    /// Part FKs (1-based).
    pub partkey: Vec<i32>,
    /// Supplier FKs (1-based).
    pub suppkey: Vec<i32>,
    /// Line numbers (1–7).
    pub linenumber: Vec<i32>,
    /// Quantities (1–50).
    pub quantity: Vec<i32>,
    /// Tax (0–8).
    pub tax: Vec<i32>,
    /// Discounts (0–10).
    pub discount: Vec<i32>,
    /// Commit dates (`yyyymmdd`).
    pub commitdate: Vec<i32>,
    /// Extended prices.
    pub extendedprice: Vec<i32>,
    /// Revenues.
    pub revenue: Vec<i32>,
    /// Supply costs.
    pub supplycost: Vec<i32>,
}

impl LineOrder {
    /// Append all of `other`'s rows to `self` (column-wise concat).
    pub fn extend_from(&mut self, other: &LineOrder) {
        self.orderkey.extend_from_slice(&other.orderkey);
        self.orderdate.extend_from_slice(&other.orderdate);
        self.ordtotalprice.extend_from_slice(&other.ordtotalprice);
        self.custkey.extend_from_slice(&other.custkey);
        self.partkey.extend_from_slice(&other.partkey);
        self.suppkey.extend_from_slice(&other.suppkey);
        self.linenumber.extend_from_slice(&other.linenumber);
        self.quantity.extend_from_slice(&other.quantity);
        self.tax.extend_from_slice(&other.tax);
        self.discount.extend_from_slice(&other.discount);
        self.commitdate.extend_from_slice(&other.commitdate);
        self.extendedprice.extend_from_slice(&other.extendedprice);
        self.revenue.extend_from_slice(&other.revenue);
        self.supplycost.extend_from_slice(&other.supplycost);
        self.len = self.orderkey.len();
    }

    /// Borrow one column by id.
    pub fn column(&self, c: LoColumn) -> &[i32] {
        match c {
            LoColumn::OrderKey => &self.orderkey,
            LoColumn::OrderDate => &self.orderdate,
            LoColumn::OrdTotalPrice => &self.ordtotalprice,
            LoColumn::CustKey => &self.custkey,
            LoColumn::PartKey => &self.partkey,
            LoColumn::SuppKey => &self.suppkey,
            LoColumn::LineNumber => &self.linenumber,
            LoColumn::Quantity => &self.quantity,
            LoColumn::Tax => &self.tax,
            LoColumn::Discount => &self.discount,
            LoColumn::CommitDate => &self.commitdate,
            LoColumn::ExtendedPrice => &self.extendedprice,
            LoColumn::Revenue => &self.revenue,
            LoColumn::SupplyCost => &self.supplycost,
        }
    }
}

/// A complete SSB database at some scale factor.
#[derive(Debug, Clone)]
pub struct SsbData {
    /// Scale factor used.
    pub sf: f64,
    /// Fact table.
    pub lineorder: LineOrder,
    /// Date dimension.
    pub date: DateDim,
    /// Customer dimension.
    pub customer: GeoDim,
    /// Supplier dimension.
    pub supplier: GeoDim,
    /// Part dimension.
    pub part: PartDim,
}

fn days_in_month(y: i32, m: i32) -> i32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month out of range"),
    }
}

/// Whether `key` is a `yyyymmdd` calendar day: the keys a date
/// dimension over the key's year holds, and no others (19930231 and
/// 19940100 are not; nor is any negative key).
pub fn is_calendar_day(key: i32) -> bool {
    let (y, m, d) = (key / 10_000, key / 100 % 100, key % 100);
    (1..=12).contains(&m) && 1 <= d && d <= days_in_month(y, m)
}

fn make_dates() -> DateDim {
    let mut d = DateDim::default();
    for y in FIRST_YEAR..=LAST_YEAR {
        let mut day_of_year = 0;
        for m in 1..=12 {
            for day in 1..=days_in_month(y, m) {
                day_of_year += 1;
                d.datekey.push(y * 10_000 + m * 100 + day);
                d.year.push(y);
                d.yearmonthnum.push(y * 100 + m);
                d.weeknuminyear.push((day_of_year - 1) / 7 + 1);
            }
        }
    }
    d
}

fn make_geo(n: usize, rng: &mut Rng) -> GeoDim {
    let mut g = GeoDim::default();
    for _ in 0..n {
        let nation = rng.gen_range(0..NATIONS as i32);
        let city = nation * 10 + rng.gen_range(0..10);
        g.city.push(city);
        g.nation.push(nation);
        g.region.push(nation / 5);
    }
    g
}

fn make_parts(n: usize, rng: &mut Rng) -> PartDim {
    let mut p = PartDim::default();
    for _ in 0..n {
        let mfgr = rng.gen_range(0..5);
        let category = mfgr * 5 + rng.gen_range(0..5);
        let brand1 = category * 40 + rng.gen_range(0..40);
        p.mfgr.push(mfgr);
        p.category.push(category);
        p.brand1.push(brand1);
    }
    p
}

/// Dimension cardinalities at scale factor `sf` (dbgen's formulas):
/// `(n_cust, n_supp, n_part)`.
fn dim_counts(sf: f64) -> (usize, usize, usize) {
    let n_cust = ((30_000.0 * sf) as usize).max(100);
    let n_supp = ((2_000.0 * sf) as usize).max(20);
    // dbgen: 200k * ceil(1 + log2(SF)) parts; scaled down for SF<1.
    let n_part = if sf >= 1.0 {
        200_000 * (1.0 + sf.log2().max(0.0)).ceil() as usize
    } else {
        ((200_000.0 * sf) as usize).max(200)
    };
    (n_cust, n_supp, n_part)
}

/// Generate one order (1–7 lines) into `lo`, consuming `rng` draws in
/// the fixed dbgen order. Shared by the bulk generator and the
/// chunked [`StreamSpec`] generator so their row distributions cannot
/// drift apart.
fn push_order(
    lo: &mut LineOrder,
    rng: &mut Rng,
    orderkey: i32,
    date: &DateDim,
    n_cust: usize,
    n_supp: usize,
    n_part: usize,
) {
    let lines = rng.gen_range(1..=7);
    let date_idx = rng.gen_range(0..date.datekey.len());
    let orderdate = date.datekey[date_idx];
    let custkey = rng.gen_range(1..=n_cust as i32);
    let ordtotalprice = rng.gen_range(50_000..=500_000);
    for line in 1..=lines {
        lo.orderkey.push(orderkey);
        lo.orderdate.push(orderdate);
        lo.ordtotalprice.push(ordtotalprice);
        lo.custkey.push(custkey);
        lo.partkey.push(rng.gen_range(1..=n_part as i32));
        lo.suppkey.push(rng.gen_range(1..=n_supp as i32));
        lo.linenumber.push(line);
        let quantity = rng.gen_range(1..=50);
        lo.quantity.push(quantity);
        lo.tax.push(rng.gen_range(0..=8));
        let discount = rng.gen_range(0..=10);
        lo.discount.push(discount);
        let commit_idx = (date_idx + rng.gen_range(30usize..=90)).min(date.datekey.len() - 1);
        lo.commitdate.push(date.datekey[commit_idx]);
        let extendedprice = rng.gen_range(90_000..=5_500_000) / 100;
        lo.extendedprice.push(extendedprice);
        lo.revenue.push(extendedprice * (100 - discount) / 100);
        lo.supplycost.push(rng.gen_range(10_000..=100_000));
    }
}

impl SsbData {
    /// Generate a database at scale factor `sf` (SF 1 ≈ 6 M lineorder
    /// rows). Deterministic for a given `sf`.
    pub fn generate(sf: f64) -> Self {
        let mut rng = Rng::seed_from_u64(0x55B_2022);
        let date = make_dates();
        let (n_cust, n_supp, n_part) = dim_counts(sf);
        let customer = make_geo(n_cust, &mut rng);
        let supplier = make_geo(n_supp, &mut rng);
        let part = make_parts(n_part, &mut rng);

        let n_orders = (1_500_000.0 * sf) as usize;
        let mut lo = LineOrder::default();
        for o in 0..n_orders {
            push_order(
                &mut lo,
                &mut rng,
                o as i32 + 1,
                &date,
                n_cust,
                n_supp,
                n_part,
            );
        }
        lo.len = lo.orderkey.len();
        SsbData {
            sf,
            lineorder: lo,
            date,
            customer,
            supplier,
            part,
        }
    }

    /// Date-dimension byte footprint read when building its hash table.
    pub fn date_dim_bytes(&self) -> u64 {
        self.date.datekey.len() as u64 * 4 * 4
    }

    /// Customer-dimension byte footprint (key + 3 geo columns).
    pub fn customer_dim_bytes(&self) -> u64 {
        self.customer.city.len() as u64 * 4 * 4
    }

    /// Supplier-dimension byte footprint.
    pub fn supplier_dim_bytes(&self) -> u64 {
        self.supplier.city.len() as u64 * 4 * 4
    }

    /// Part-dimension byte footprint (key + 3 columns).
    pub fn part_dim_bytes(&self) -> u64 {
        self.part.mfgr.len() as u64 * 4 * 4
    }
}

/// Chunked, restartable lineorder generation for out-of-core scale.
///
/// [`SsbData::generate`] draws every order from one sequential RNG, so
/// producing row 499 million requires generating everything before it —
/// useless for regenerating a single lost partition. A `StreamSpec`
/// instead seeds an **independent RNG per chunk** (`seed` mixed with
/// the chunk index), so [`chunk`] is `O(chunk)` regardless of where it
/// sits in the table, and a store partition lost to a torn write or a
/// dead shard can be re-created (and byte-identically re-encoded)
/// without touching its neighbours. Per-order line generation is the
/// shared `push_order` path, so chunked output has exactly the bulk
/// generator's distributions (sorted `lo_orderkey`, 1–7-line runs,
/// per-order repeated columns).
///
/// [`chunk`]: StreamSpec::chunk
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSpec {
    /// Base seed; chunk `c` derives its RNG from `seed` and `c`.
    pub seed: u64,
    /// Orders per chunk (each order expands to 1–7 lineorder rows).
    pub orders_per_chunk: usize,
    /// Number of chunks.
    pub chunks: usize,
    /// Customer-dimension cardinality.
    pub n_cust: usize,
    /// Supplier-dimension cardinality.
    pub n_supp: usize,
    /// Part-dimension cardinality.
    pub n_part: usize,
}

impl StreamSpec {
    /// Spec targeting roughly `target_rows` lineorder rows (orders
    /// average 4 lines), with dimension cardinalities at the implied
    /// scale factor.
    pub fn for_rows(seed: u64, target_rows: u64, orders_per_chunk: usize) -> Self {
        assert!(orders_per_chunk >= 1);
        let orders = (target_rows / 4).max(1) as usize;
        let chunks = orders.div_ceil(orders_per_chunk).max(1);
        let sf = orders as f64 / 1_500_000.0;
        let (n_cust, n_supp, n_part) = dim_counts(sf);
        StreamSpec {
            seed,
            orders_per_chunk,
            chunks,
            n_cust,
            n_supp,
            n_part,
        }
    }

    /// Implied scale factor (for reporting).
    pub fn sf(&self) -> f64 {
        (self.orders_per_chunk * self.chunks) as f64 / 1_500_000.0
    }

    /// The dimension tables (and an **empty** fact table): everything a
    /// fused query needs besides the streamed lineorder columns. Built
    /// from one RNG seeded by `seed`, independent of any chunk RNG.
    pub fn dims(&self) -> SsbData {
        let mut rng = Rng::seed_from_u64(self.seed);
        let date = make_dates();
        let customer = make_geo(self.n_cust, &mut rng);
        let supplier = make_geo(self.n_supp, &mut rng);
        let part = make_parts(self.n_part, &mut rng);
        SsbData {
            sf: self.sf(),
            lineorder: LineOrder::default(),
            date,
            customer,
            supplier,
            part,
        }
    }

    /// Generate chunk `c` — `orders_per_chunk` orders with globally
    /// consecutive order keys — from its own seeded RNG. `O(chunk)`
    /// regardless of `c`, and bit-identical on every call.
    pub fn chunk(&self, c: usize) -> LineOrder {
        assert!(c < self.chunks, "chunk {c} out of {}", self.chunks);
        // SplitMix64-style mix so adjacent chunk seeds share no
        // structure with each other or with the dims RNG.
        let mixed = (self.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = Rng::seed_from_u64(mixed);
        let date = make_dates();
        let base = c * self.orders_per_chunk;
        let mut lo = LineOrder::default();
        for o in 0..self.orders_per_chunk {
            push_order(
                &mut lo,
                &mut rng,
                (base + o) as i32 + 1,
                &date,
                self.n_cust,
                self.n_supp,
                self.n_part,
            );
        }
        lo.len = lo.orderkey.len();
        lo
    }

    /// Materialize the whole spec in memory (dims + all chunks
    /// concatenated). Small-scale only; the streamed executor never
    /// calls this.
    pub fn materialize(&self) -> SsbData {
        let mut data = self.dims();
        for c in 0..self.chunks {
            data.lineorder.extend_from(&self.chunk(c));
        }
        data
    }
}

#[cfg(test)]
mod stream_spec_tests {
    use super::*;

    #[test]
    fn chunks_are_independent_and_deterministic() {
        let spec = StreamSpec::for_rows(7, 40_000, 2_000);
        assert!(spec.chunks >= 5);
        let last = spec.chunks - 1;
        // Chunk c regenerates identically without touching c-1.
        assert_eq!(spec.chunk(last).revenue, spec.chunk(last).revenue);
        assert_ne!(spec.chunk(0).revenue, spec.chunk(1).revenue);
    }

    #[test]
    fn orderkeys_are_globally_sorted_across_chunks() {
        let spec = StreamSpec::for_rows(3, 24_000, 1_000);
        let data = spec.materialize();
        let keys = &data.lineorder.orderkey;
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(keys[0], 1);
        assert_eq!(
            *keys.last().expect("rows"),
            (spec.orders_per_chunk * spec.chunks) as i32
        );
    }

    #[test]
    fn chunked_rows_have_the_bulk_distributions() {
        let spec = StreamSpec::for_rows(0, 60_000, 5_000);
        let data = spec.materialize();
        let lo = &data.lineorder;
        let runs = |col: &[i32]| {
            let mut r = 1;
            for w in col.windows(2) {
                if w[0] != w[1] {
                    r += 1;
                }
            }
            col.len() as f64 / r as f64
        };
        // Same run structure the compression waterfall depends on.
        assert!(runs(&lo.orderkey) > 3.0);
        assert!(runs(&lo.quantity) < 1.5);
        assert!(lo.quantity.iter().all(|&q| (1..=50).contains(&q)));
        assert!(lo
            .custkey
            .iter()
            .all(|&k| k >= 1 && k as usize <= spec.n_cust));
        let dates: std::collections::HashSet<i32> = data.date.datekey.iter().copied().collect();
        assert!(lo.orderdate.iter().all(|d| dates.contains(d)));
    }

    #[test]
    fn dims_match_materialized_dims() {
        let spec = StreamSpec::for_rows(11, 8_000, 1_000);
        let dims = spec.dims();
        let full = spec.materialize();
        assert_eq!(dims.customer.city, full.customer.city);
        assert_eq!(dims.part.brand1, full.part.brand1);
        assert!(dims.lineorder.len == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_has_2556_days() {
        let d = make_dates();
        // 1992..=1998: two leap years (1992, 1996).
        assert_eq!(d.datekey.len(), 5 * 365 + 2 * 366);
        assert_eq!(d.datekey[0], 19_920_101);
        assert_eq!(*d.datekey.last().expect("non-empty"), 19_981_231);
    }

    #[test]
    fn weeknum_range() {
        let d = make_dates();
        assert!(d.weeknuminyear.iter().all(|&w| (1..=53).contains(&w)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SsbData::generate(0.01);
        let b = SsbData::generate(0.01);
        assert_eq!(a.lineorder.revenue, b.lineorder.revenue);
        assert_eq!(a.customer.city, b.customer.city);
    }

    #[test]
    fn row_counts_scale() {
        let data = SsbData::generate(0.01);
        let n = data.lineorder.len;
        // 15k orders x ~4 lines.
        assert!(n > 40_000 && n < 80_000, "n = {n}");
        assert_eq!(data.customer.city.len(), 300);
        assert_eq!(data.supplier.city.len(), 20);
    }

    #[test]
    fn per_order_columns_have_runs() {
        let data = SsbData::generate(0.01);
        let lo = &data.lineorder;
        let runs = |col: &[i32]| {
            let mut r = 1;
            for w in col.windows(2) {
                if w[0] != w[1] {
                    r += 1;
                }
            }
            col.len() as f64 / r as f64
        };
        assert!(
            runs(&lo.orderkey) > 3.0,
            "orderkey ARL = {}",
            runs(&lo.orderkey)
        );
        assert!(
            runs(&lo.quantity) < 1.5,
            "quantity ARL = {}",
            runs(&lo.quantity)
        );
    }

    #[test]
    fn geography_hierarchy_consistent() {
        let data = SsbData::generate(0.01);
        for i in 0..data.customer.city.len() {
            assert_eq!(data.customer.region[i], data.customer.nation[i] / 5);
            assert_eq!(data.customer.city[i] / 10, data.customer.nation[i]);
        }
    }

    #[test]
    fn part_hierarchy_consistent() {
        let data = SsbData::generate(0.01);
        for i in 0..data.part.mfgr.len() {
            assert_eq!(data.part.category[i] / 5, data.part.mfgr[i]);
            assert_eq!(data.part.brand1[i] / 40, data.part.category[i]);
        }
    }

    #[test]
    fn fk_ranges_valid() {
        let data = SsbData::generate(0.01);
        let lo = &data.lineorder;
        assert!(lo
            .custkey
            .iter()
            .all(|&k| k >= 1 && k as usize <= data.customer.city.len()));
        assert!(lo
            .suppkey
            .iter()
            .all(|&k| k >= 1 && k as usize <= data.supplier.city.len()));
        assert!(lo
            .partkey
            .iter()
            .all(|&k| k >= 1 && k as usize <= data.part.mfgr.len()));
        let dates: std::collections::HashSet<i32> = data.date.datekey.iter().copied().collect();
        assert!(lo.orderdate.iter().all(|d| dates.contains(d)));
        assert!(lo.commitdate.iter().all(|d| dates.contains(d)));
    }
}

// ---------------------------------------------------------------------
// String attribute rendering (dbgen's string forms). The engine runs on
// dictionary codes; these helpers produce the strings those codes stand
// for, so loaders can exercise the full dictionary-encode path (see
// `tlc_core::typed::DictStringColumn`).
// ---------------------------------------------------------------------

/// dbgen's 25 nations, in dictionary-id order.
pub const NATION_NAMES: [&str; NATIONS] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// The five regions, in dictionary-id order.
pub const REGION_NAMES: [&str; REGIONS] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Render a nation id as its dbgen string.
pub fn nation_name(id: i32) -> &'static str {
    NATION_NAMES[id as usize]
}

/// Render a region id as its dbgen string.
pub fn region_name(id: i32) -> &'static str {
    REGION_NAMES[id as usize]
}

/// Render a city id as dbgen's `<nation prefix><digit>` form
/// (e.g. "UNITED KI4").
pub fn city_name(id: i32) -> String {
    let nation = nation_name(id / 10);
    let prefix: String = nation.chars().take(9).collect();
    format!("{prefix:<9}{}", id % 10)
}

/// Render a brand id as dbgen's "MFGR#MMCB" form.
pub fn brand_name(id: i32) -> String {
    let category = id / 40;
    let (mfgr, cat_in_mfgr) = (category / 5, category % 5);
    format!("MFGR#{}{}{:02}", mfgr + 1, cat_in_mfgr + 1, id % 40 + 1)
}

/// Render a category id as dbgen's "MFGR#MC" form.
pub fn category_name(id: i32) -> String {
    format!("MFGR#{}{}", id / 5 + 1, id % 5 + 1)
}

#[cfg(test)]
mod string_tests {
    use super::*;
    use tlc_core::typed::DictStringColumn;

    #[test]
    fn name_forms_match_dbgen() {
        assert_eq!(nation_name(24), "UNITED STATES");
        assert_eq!(region_name(2), "ASIA");
        assert_eq!(city_name(243), "UNITED ST3");
        assert_eq!(brand_name(0), "MFGR#1101");
        assert_eq!(brand_name(999), "MFGR#5540");
        assert_eq!(category_name(6), "MFGR#22");
    }

    #[test]
    fn city_names_are_distinct() {
        let mut names: Vec<String> = (0..CITIES as i32).map(city_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CITIES);
    }

    #[test]
    fn dictionary_encoding_roundtrips_supplier_nations() {
        // The full load path the paper describes: render strings,
        // dictionary-encode them, compress the codes, decode back.
        let data = SsbData::generate(0.01);
        let strings: Vec<&str> = data
            .supplier
            .nation
            .iter()
            .map(|&n| nation_name(n))
            .collect();
        let col = DictStringColumn::encode(&strings);
        assert_eq!(col.decode(), strings);
        // Predicate rewriting: every literal resolves to exactly one code.
        assert!(col.code_of("UNITED STATES").is_some());
        assert!(col.code_of("ATLANTIS").is_none());
    }
}
