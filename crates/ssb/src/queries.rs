//! The 13 SSB queries on the Crystal engine.
//!
//! Each query flight is one fused tile kernel (plus the dimension
//! hash-table builds): predicates are evaluated on decoded tiles in
//! registers, then the surviving lanes probe the dimension tables and
//! feed the aggregate — with compressed columns decoded *inline* by the
//! tile loads when the system supports it (Section 7). OmniSci runs the
//! same logic operator-at-a-time with materialized intermediates.
//!
//! Whatever runs, it makes at most **two launches**: [`wave_build`]
//! builds every dimension table of every flight asked for, one part
//! per table, and [`wave_scan`] runs every fact scan, one part per
//! scalar column and one per flight. [`try_run_query`] is the
//! one-flight case, [`scalar_filters`] the one-column case, and the
//! streaming executor ([`crate::stream`]) passes a whole wave.
//!
//! Dictionary-encoded dimension literals (regions, nations, cities,
//! categories, brands) use fixed ids documented at each query; the
//! selectivities match the SSB spec (e.g. one region = 1/5, one
//! category = 1/25, eight brands = 8/1000).

use std::cell::RefCell;

use tlc_core::DecodeError;
use tlc_crystal::exec::{fused_config, fused_select_config, materialize};
use tlc_crystal::{DenseTable, GroupBySum, QueryColumn, ScalarSum};
use tlc_gpu_sim::{
    all_lanes, live_lanes, BlockCtx, Device, GlobalBuffer, KernelConfig, KernelReport, LaunchPart,
    Phase,
};

use crate::encode::LoColumns;
use crate::gen::{LoColumn, SsbData, BRANDS, CITIES, FIRST_YEAR, NATIONS};
use crate::System;

/// Number of years in the date dimension.
pub const YEARS: usize = 7;

/// The 13 SSB queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum QueryId {
    Q11,
    Q12,
    Q13,
    Q21,
    Q22,
    Q23,
    Q31,
    Q32,
    Q33,
    Q34,
    Q41,
    Q42,
    Q43,
}

impl QueryId {
    /// All queries in benchmark order.
    pub const ALL: [QueryId; 13] = [
        QueryId::Q11,
        QueryId::Q12,
        QueryId::Q13,
        QueryId::Q21,
        QueryId::Q22,
        QueryId::Q23,
        QueryId::Q31,
        QueryId::Q32,
        QueryId::Q33,
        QueryId::Q34,
        QueryId::Q41,
        QueryId::Q42,
        QueryId::Q43,
    ];

    /// Display name ("q1.1" …).
    pub fn name(&self) -> &'static str {
        match self {
            QueryId::Q11 => "q1.1",
            QueryId::Q12 => "q1.2",
            QueryId::Q13 => "q1.3",
            QueryId::Q21 => "q2.1",
            QueryId::Q22 => "q2.2",
            QueryId::Q23 => "q2.3",
            QueryId::Q31 => "q3.1",
            QueryId::Q32 => "q3.2",
            QueryId::Q33 => "q3.3",
            QueryId::Q34 => "q3.4",
            QueryId::Q41 => "q4.1",
            QueryId::Q42 => "q4.2",
            QueryId::Q43 => "q4.3",
        }
    }

    /// Lineorder columns the query reads.
    pub fn columns(&self) -> &'static [LoColumn] {
        match self {
            QueryId::Q11 | QueryId::Q12 | QueryId::Q13 => &[
                LoColumn::OrderDate,
                LoColumn::Quantity,
                LoColumn::Discount,
                LoColumn::ExtendedPrice,
            ],
            QueryId::Q21 | QueryId::Q22 | QueryId::Q23 => &[
                LoColumn::PartKey,
                LoColumn::SuppKey,
                LoColumn::OrderDate,
                LoColumn::Revenue,
            ],
            QueryId::Q31 | QueryId::Q32 | QueryId::Q33 | QueryId::Q34 => &[
                LoColumn::CustKey,
                LoColumn::SuppKey,
                LoColumn::OrderDate,
                LoColumn::Revenue,
            ],
            QueryId::Q41 | QueryId::Q42 | QueryId::Q43 => &[
                LoColumn::CustKey,
                LoColumn::SuppKey,
                LoColumn::PartKey,
                LoColumn::OrderDate,
                LoColumn::Revenue,
                LoColumn::SupplyCost,
            ],
        }
    }
}

/// Dimension-table predicates/payloads for each query, kept in one
/// place so the fused, materialized and reference executors can't
/// drift apart.
pub(crate) struct QuerySpec {
    /// Date payload: `Some(year index)` when the row qualifies.
    pub date: fn(&SsbData, usize) -> Option<i32>,
    /// Customer payload by row.
    pub cust: fn(&SsbData, usize) -> Option<i32>,
    /// Supplier payload by row.
    pub supp: fn(&SsbData, usize) -> Option<i32>,
    /// Part payload by row.
    pub part: fn(&SsbData, usize) -> Option<i32>,
    /// Fact-local quantity predicate (flight 1): the inclusive range a
    /// row's quantity must fall in. Ranges, not `fn` pointers, so the
    /// fused kernels evaluate them inline (see [`within`]).
    pub qty: (i32, i32),
    /// Fact-local discount predicate (flight 1), likewise.
    pub disc: (i32, i32),
    /// Group count of the dense aggregate.
    pub groups: usize,
    /// Group index from (cust, supp, part, year) payloads.
    pub group: fn(i32, i32, i32, i32) -> usize,
}

/// The range predicate every value passes.
const ANY: (i32, i32) = (i32::MIN, i32::MAX);

/// The predicate "`lo <= v <= hi`" as a closure the fused loads
/// monomorphise over.
pub(crate) fn within((lo, hi): (i32, i32)) -> impl Fn(i32) -> bool + Copy {
    move |v| lo <= v && v <= hi
}

fn yidx(data: &SsbData, row: usize) -> i32 {
    data.date.year[row] - FIRST_YEAR
}

pub(crate) fn spec(q: QueryId) -> QuerySpec {
    // Dictionary ids used for literals: regions {0=AMERICA, 1=ASIA,
    // 2=EUROPE}; nation 3 = "UNITED STATES"; cities 40/44 = "UNITED
    // KI1"/"UNITED KI5"; category 6 = "MFGR#12"; brands 260..=267 =
    // "MFGR#2221".."MFGR#2228"; brand 260 = "MFGR#2239"; category 3 =
    // "MFGR#14"; mfgr {0,1} = "MFGR#1","MFGR#2".
    match q {
        QueryId::Q11 => QuerySpec {
            date: |d, r| (d.date.year[r] == 1993).then_some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (i32::MIN, 24),
            disc: (1, 3),
            groups: 1,
            group: |_, _, _, _| 0,
        },
        QueryId::Q12 => QuerySpec {
            date: |d, r| (d.date.yearmonthnum[r] == 199_401).then_some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (26, 35),
            disc: (4, 6),
            groups: 1,
            group: |_, _, _, _| 0,
        },
        QueryId::Q13 => QuerySpec {
            date: |d, r| (d.date.weeknuminyear[r] == 6 && d.date.year[r] == 1994).then_some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (26, 35),
            disc: (5, 7),
            groups: 1,
            group: |_, _, _, _| 0,
        },
        QueryId::Q21 => QuerySpec {
            date: |d, r| Some(yidx(d, r)),
            cust: |_, _| Some(0),
            supp: |d, r| (d.supplier.region[r] == 0).then_some(0),
            part: |d, r| (d.part.category[r] == 6).then_some(d.part.brand1[r]),
            qty: ANY,
            disc: ANY,
            groups: YEARS * BRANDS,
            group: |_, _, brand, y| y as usize * BRANDS + brand as usize,
        },
        QueryId::Q22 => QuerySpec {
            date: |d, r| Some(yidx(d, r)),
            cust: |_, _| Some(0),
            supp: |d, r| (d.supplier.region[r] == 1).then_some(0),
            part: |d, r| {
                (260..=267)
                    .contains(&d.part.brand1[r])
                    .then_some(d.part.brand1[r])
            },
            qty: ANY,
            disc: ANY,
            groups: YEARS * BRANDS,
            group: |_, _, brand, y| y as usize * BRANDS + brand as usize,
        },
        QueryId::Q23 => QuerySpec {
            date: |d, r| Some(yidx(d, r)),
            cust: |_, _| Some(0),
            supp: |d, r| (d.supplier.region[r] == 2).then_some(0),
            part: |d, r| (d.part.brand1[r] == 260).then_some(d.part.brand1[r]),
            qty: ANY,
            disc: ANY,
            groups: YEARS * BRANDS,
            group: |_, _, brand, y| y as usize * BRANDS + brand as usize,
        },
        QueryId::Q31 => QuerySpec {
            date: |d, r| (d.date.year[r] <= 1997).then_some(yidx(d, r)),
            cust: |d, r| (d.customer.region[r] == 1).then_some(d.customer.nation[r]),
            supp: |d, r| (d.supplier.region[r] == 1).then_some(d.supplier.nation[r]),
            part: |_, _| Some(0),
            qty: ANY,
            disc: ANY,
            groups: NATIONS * NATIONS * YEARS,
            group: |cn, sn, _, y| (cn as usize * NATIONS + sn as usize) * YEARS + y as usize,
        },
        QueryId::Q32 => QuerySpec {
            date: |d, r| (d.date.year[r] <= 1997).then_some(yidx(d, r)),
            cust: |d, r| (d.customer.nation[r] == 3).then_some(d.customer.city[r]),
            supp: |d, r| (d.supplier.nation[r] == 3).then_some(d.supplier.city[r]),
            part: |_, _| Some(0),
            qty: ANY,
            disc: ANY,
            groups: CITIES * CITIES * YEARS,
            group: |cc, sc, _, y| (cc as usize * CITIES + sc as usize) * YEARS + y as usize,
        },
        QueryId::Q33 => QuerySpec {
            date: |d, r| (d.date.year[r] <= 1997).then_some(yidx(d, r)),
            cust: |d, r| matches!(d.customer.city[r], 40 | 44).then_some(d.customer.city[r]),
            supp: |d, r| matches!(d.supplier.city[r], 40 | 44).then_some(d.supplier.city[r]),
            part: |_, _| Some(0),
            qty: ANY,
            disc: ANY,
            groups: CITIES * CITIES * YEARS,
            group: |cc, sc, _, y| (cc as usize * CITIES + sc as usize) * YEARS + y as usize,
        },
        QueryId::Q34 => QuerySpec {
            date: |d, r| (d.date.yearmonthnum[r] == 199_712).then_some(yidx(d, r)),
            cust: |d, r| matches!(d.customer.city[r], 40 | 44).then_some(d.customer.city[r]),
            supp: |d, r| matches!(d.supplier.city[r], 40 | 44).then_some(d.supplier.city[r]),
            part: |_, _| Some(0),
            qty: ANY,
            disc: ANY,
            groups: CITIES * CITIES * YEARS,
            group: |cc, sc, _, y| (cc as usize * CITIES + sc as usize) * YEARS + y as usize,
        },
        QueryId::Q41 => QuerySpec {
            date: |d, r| Some(yidx(d, r)),
            cust: |d, r| (d.customer.region[r] == 0).then_some(d.customer.nation[r]),
            supp: |d, r| (d.supplier.region[r] == 0).then_some(0),
            part: |d, r| matches!(d.part.mfgr[r], 0 | 1).then_some(0),
            qty: ANY,
            disc: ANY,
            groups: YEARS * NATIONS,
            group: |cn, _, _, y| y as usize * NATIONS + cn as usize,
        },
        QueryId::Q42 => QuerySpec {
            date: |d, r| matches!(d.date.year[r], 1997 | 1998).then_some(yidx(d, r)),
            cust: |d, r| (d.customer.region[r] == 0).then_some(0),
            supp: |d, r| (d.supplier.region[r] == 0).then_some(d.supplier.nation[r]),
            part: |d, r| matches!(d.part.mfgr[r], 0 | 1).then_some(d.part.category[r]),
            qty: ANY,
            disc: ANY,
            groups: YEARS * NATIONS * 25,
            group: |_, sn, cat, y| (y as usize * NATIONS + sn as usize) * 25 + cat as usize,
        },
        QueryId::Q43 => QuerySpec {
            date: |d, r| matches!(d.date.year[r], 1997 | 1998).then_some(yidx(d, r)),
            cust: |d, r| (d.customer.region[r] == 0).then_some(0),
            supp: |d, r| (d.supplier.nation[r] == 3).then_some(d.supplier.city[r]),
            part: |d, r| (d.part.category[r] == 3).then_some(d.part.brand1[r]),
            qty: ANY,
            disc: ANY,
            groups: YEARS * CITIES * BRANDS,
            group: |_, sc, brand, y| (y as usize * CITIES + sc as usize) * BRANDS + brand as usize,
        },
    }
}

fn is_flight1(q: QueryId) -> bool {
    matches!(q, QueryId::Q11 | QueryId::Q12 | QueryId::Q13)
}

fn uses_cust(q: QueryId) -> bool {
    matches!(
        q,
        QueryId::Q31
            | QueryId::Q32
            | QueryId::Q33
            | QueryId::Q34
            | QueryId::Q41
            | QueryId::Q42
            | QueryId::Q43
    )
}

fn uses_part(q: QueryId) -> bool {
    matches!(
        q,
        QueryId::Q21 | QueryId::Q22 | QueryId::Q23 | QueryId::Q41 | QueryId::Q42 | QueryId::Q43
    )
}

fn uses_supp(q: QueryId) -> bool {
    !is_flight1(q)
}

/// The dimension tables one flight probes, built by [`wave_build`].
pub struct Tables {
    date: DenseTable,
    cust: Option<DenseTable>,
    supp: Option<DenseTable>,
    part: Option<DenseTable>,
}

impl Tables {
    /// How many tables the flight built: its parts of the build launch.
    pub fn built(&self) -> usize {
        1 + [&self.cust, &self.supp, &self.part]
            .into_iter()
            .flatten()
            .count()
    }
}

/// Build the dimension hash tables of every query in `queries` (counts
/// as part of the measured query, as in Crystal) in **one** launch,
/// `wave_build`: one part per table, a query's parts together in the
/// order date, customer, supplier, part. Returns each query's tables
/// and the launch's report (`None` and no launch for no queries).
pub fn wave_build(
    dev: &Device,
    data: &SsbData,
    queries: &[QueryId],
) -> Result<(Vec<Tables>, Option<KernelReport>), DecodeError> {
    if queries.is_empty() {
        return Ok((Vec::new(), None));
    }
    /// One dimension of one query: the table's key range, its rows
    /// under the query's predicate, the bytes its build reads.
    struct Dim {
        name: &'static str,
        base: i32,
        max_key: i32,
        rows: Vec<(i32, Option<i32>)>,
        bytes: u64,
    }
    // Customer, supplier and part keys are the row numbers from 1.
    let keyed = |name, n: usize, payload: fn(&SsbData, usize) -> Option<i32>, bytes| Dim {
        name,
        base: 1,
        max_key: n as i32,
        rows: (0..n).map(|r| (r as i32 + 1, payload(data, r))).collect(),
        bytes,
    };
    let dims: Vec<Vec<Dim>> = queries
        .iter()
        .map(|&q| {
            let s = spec(q);
            let datekey = &data.date.datekey;
            let mut dims = vec![Dim {
                name: "date",
                base: datekey[0],
                max_key: *datekey.last().expect("non-empty"),
                rows: (0..datekey.len())
                    .map(|r| (datekey[r], (s.date)(data, r)))
                    .collect(),
                bytes: data.date_dim_bytes(),
            }];
            if uses_cust(q) {
                let n = data.customer.city.len();
                dims.push(keyed("customer", n, s.cust, data.customer_dim_bytes()));
            }
            if uses_supp(q) {
                let n = data.supplier.city.len();
                dims.push(keyed("supplier", n, s.supp, data.supplier_dim_bytes()));
            }
            if uses_part(q) {
                let n = data.part.mfgr.len();
                dims.push(keyed("part", n, s.part, data.part_dim_bytes()));
            }
            dims
        })
        .collect();
    let mut built: Vec<Vec<DenseTable>> = dims
        .iter()
        .map(|dims| {
            let empty = |d: &Dim| DenseTable::empty(dev, d.base, d.max_key);
            dims.iter().map(empty).collect()
        })
        .collect();
    let parts = built
        .iter_mut()
        .flatten()
        .zip(dims.iter().flatten())
        .map(|(table, d)| table.build_part(dev, d.name, &d.rows, d.bytes))
        .collect();
    let report = dev
        .try_launch_parts("wave_build", parts)
        .map_err(DecodeError::Launch)?;
    let tables = queries
        .iter()
        .zip(built)
        .map(|(&q, built)| {
            let mut built = built.into_iter();
            let mut next = |used: bool| used.then(|| built.next().expect("built above"));
            Tables {
                date: next(true).expect("every flight joins date"),
                cust: next(uses_cust(q)),
                supp: next(uses_supp(q)),
                part: next(uses_part(q)),
            }
        })
        .collect();
    Ok((tables, Some(report)))
}

/// Run query `q` against `cols` and return the non-empty groups as
/// `(group index, wrapped signed sum)` pairs, sorted by group.
///
/// The caller brackets this with `dev.reset_timeline()` /
/// `dev.elapsed_seconds()` to measure; decompression kernels for
/// non-inline systems run inside.
pub fn run_query(dev: &Device, data: &SsbData, cols: &LoColumns, q: QueryId) -> Vec<(u64, u64)> {
    try_run_query(dev, data, cols, q).unwrap_or_else(|e| panic!("{} failed: {e}", q.name()))
}

/// Fallible variant of [`run_query`]: tile corruption or a device
/// fault surfaces as a typed [`DecodeError`] instead of a panic. The
/// resilient executor ([`crate::resilience`]) builds on this. It is
/// the one-flight wave: a build launch, then a scan launch.
pub fn try_run_query(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    q: QueryId,
) -> Result<Vec<(u64, u64)>, DecodeError> {
    if cols.system == System::OmniSci {
        return Ok(run_materialized(dev, data, cols, q));
    }
    let prepared = cols.prepare(dev, q.columns());
    let (tables, _) = wave_build(dev, data, &[q])?;
    let flight = FlightScan {
        q,
        cols: &prepared,
        tables: &tables[0],
    };
    let (mut scan, _) = wave_scan(dev, &[], &[flight])?;
    Ok(scan.flights.pop().expect("one flight in, one answer out"))
}

/// The scalar filters of one column: a part of the scan launch.
pub struct ScalarScan<'a> {
    /// The column, loaded a tile at a time.
    pub col: &'a QueryColumn,
    /// `Some(v)`: the values equal to `v`; `None`: all of them.
    pub filters: &'a [Option<i32>],
}

/// One flight's fact scan: a part of the scan launch.
pub struct FlightScan<'a> {
    /// The flight.
    pub q: QueryId,
    /// Its columns in [`QueryId::columns`] order.
    pub cols: &'a [QueryColumn],
    /// Its dimension tables, built by [`wave_build`].
    pub tables: &'a Tables,
}

/// What the scan launch answered.
pub struct ScanAnswers {
    /// Per [`ScalarScan`], per filter: count and wrapping sum.
    pub scalars: Vec<Vec<(u64, i64)>>,
    /// Per [`FlightScan`]: the non-empty groups, sorted by group.
    pub flights: Vec<Vec<(u64, u64)>>,
}

/// A flight's device accumulator.
enum FlightAcc {
    Sum(ScalarSum),
    Groups(GroupBySum),
}

/// Every fact scan of a wave in **one** launch, `wave_scan`: one part
/// per scalar column (`scalar_part`, answering every filter on it),
/// then one per flight (`flight1_part` / `join_part`). Each part
/// loads and decodes its own tiles inline. The first tile that fails,
/// in part and then tile order, is the launch's error (or the launch's
/// own); otherwise the answers and the launch's report.
pub fn wave_scan(
    dev: &Device,
    scalars: &[ScalarScan<'_>],
    flights: &[FlightScan<'_>],
) -> Result<(ScanAnswers, KernelReport), DecodeError> {
    // Accumulator slots `2m` and `2m + 1`: filter `m`'s count and sum.
    let mut scalar_accs: Vec<GroupBySum> = scalars
        .iter()
        .map(|s| GroupBySum::new(dev, 2 * s.filters.len()))
        .collect();
    let specs: Vec<QuerySpec> = flights.iter().map(|f| spec(f.q)).collect();
    let mut flight_accs: Vec<FlightAcc> = flights
        .iter()
        .zip(&specs)
        .map(|(f, s)| match is_flight1(f.q) {
            true => FlightAcc::Sum(ScalarSum::new(dev)),
            false => FlightAcc::Groups(GroupBySum::new(dev, s.groups)),
        })
        .collect();
    let failed = RefCell::new(None);
    let mut parts = Vec::with_capacity(scalars.len() + flights.len());
    for (s, acc) in scalars.iter().zip(&mut scalar_accs) {
        parts.push(scalar_part(s, acc, &failed));
    }
    for ((f, s), acc) in flights.iter().zip(&specs).zip(&mut flight_accs) {
        parts.push(match acc {
            FlightAcc::Sum(sum) => flight1_part(f, s, sum, &failed),
            FlightAcc::Groups(agg) => join_part(f, s, agg, &failed),
        });
    }
    let report = dev
        .try_launch_parts("wave_scan", parts)
        .map_err(DecodeError::Launch)?;
    if let Some(e) = failed.into_inner() {
        return Err(e);
    }
    let answers = ScanAnswers {
        scalars: scalars
            .iter()
            .zip(&scalar_accs)
            .map(|(s, acc)| {
                let slots = acc.values();
                (0..s.filters.len())
                    .map(|m| (slots[2 * m], slots[2 * m + 1] as i64))
                    .collect()
            })
            .collect(),
        flights: flight_accs
            .iter()
            .map(|acc| match acc {
                FlightAcc::Sum(sum) => match sum.value() {
                    0 => vec![],
                    sum => vec![(0, sum)],
                },
                FlightAcc::Groups(agg) => {
                    let groups = agg.non_zero();
                    groups.iter().map(|&(g, v)| (g as u64, v)).collect()
                }
            })
            .collect(),
    };
    Ok((answers, report))
}

/// A fused tile kernel as a part of a launch: `body` runs each tile on
/// a worker (with the worker's `init` scratch) and `merge` takes the
/// tiles' values serially, in tile order, until some tile of the launch
/// has failed. The first failing tile's error is left in `failed`.
fn tile_part<'a, S, R: Send + 'static>(
    cfg: KernelConfig,
    init: impl Fn() -> S + Sync + 'a,
    body: impl Fn(&mut S, &mut BlockCtx<'_>) -> Result<R, DecodeError> + Sync + 'a,
    mut merge: impl FnMut(&mut BlockCtx<'_>, R) + 'a,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    LaunchPart::new(cfg, init, body, move |ctx, _tile, result| match result {
        Ok(value) if failed.borrow().is_none() => merge(ctx, value),
        Ok(_) => {}
        Err(e) => {
            failed.borrow_mut().get_or_insert(e);
        }
    })
}

/// Per-worker tile buffers of the fused kernels, built once per worker
/// by the launch and reused for every tile the worker runs: a tile
/// allocates nothing of its own.
#[derive(Default)]
struct TileScratch {
    /// One value buffer per query column, in the query's column order.
    vals: Vec<Vec<i32>>,
    /// Dimension payloads per lane: customer, supplier, part, date
    /// (exact on selected lanes, filler on the rest).
    pays: [Vec<i32>; 4],
    /// The running selection, one ballot word per warp of the tile…
    sel: Vec<u32>,
    /// …and the one the next fused load writes (`sel ∧ pred`).
    next: Vec<u32>,
    /// `(group, value)` pairs of the current tile.
    pairs: Vec<(usize, u64)>,
}

impl TileScratch {
    fn new(columns: usize) -> Self {
        TileScratch {
            vals: vec![Vec::new(); columns],
            ..Default::default()
        }
    }

    /// Fused decode→predicate of column `i` against the running
    /// bitmap (`chain`) or every lane; the fused bitmap becomes the
    /// running one. Returns the tile's logical length.
    fn load_select(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        cols: &[QueryColumn],
        i: usize,
        pred: impl Fn(i32) -> bool,
        chain: bool,
    ) -> Result<usize, DecodeError> {
        let sel_in = chain.then_some(self.sel.as_slice());
        let t = ctx.block_id();
        let n =
            cols[i].load_tile_select(ctx, t, pred, sel_in, &mut self.next, &mut self.vals[i])?;
        std::mem::swap(&mut self.sel, &mut self.next);
        Ok(n)
    }

    /// Probe `table` with column `i`'s first `n` keys on the selected
    /// lanes: misses leave the running selection, hits leave their
    /// payloads in `pays[slot]`.
    fn probe(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        table: &DenseTable,
        i: usize,
        n: usize,
        slot: usize,
    ) {
        let pays = &mut self.pays[slot];
        pays.resize(n, 0);
        table.probe(ctx, &self.vals[i][..n], &mut self.sel, pays);
    }
}

/// Payload slot of the date dimension in [`TileScratch::pays`].
const DATE_SLOT: usize = 3;

/// Flight 1: date join + fact predicates + scalar sum of
/// `extendedprice * discount`.
///
/// The predicate columns run through the fused decode→predicate path
/// ([`QueryColumn::load_tile_select`]): each decodes straight into a
/// selection bitmap ANDed with the previous column's bitmap, so
/// downstream columns skip miniblocks whose lanes are already dead and
/// no decompressed tile is ever staged back to memory. Only the
/// discount and price values are live at the aggregate, which is what
/// the reduced `live_columns` models.
fn flight1_part<'a>(
    flight: &FlightScan<'a>,
    s: &'a QuerySpec,
    sum: &'a mut ScalarSum,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    let (cols, tables) = (flight.cols, flight.tables);
    let refs: Vec<&QueryColumn> = cols.iter().collect();
    let cfg = fused_config("ssb_q1_fused", &refs, 2);
    // Column positions per `QueryId::columns` for flight 1: orderdate,
    // quantity, discount, extendedprice.
    let [od, qt, dc, ep] = [0, 1, 2, 3];
    // Each tile decodes, filters and probes on a worker and returns its
    // partial sum; the serial merge adds partials to the device
    // accumulator in tile order (the atomic-add traffic lives there).
    tile_part(
        cfg,
        || TileScratch::new(cols.len()),
        move |w, ctx| -> Result<u64, DecodeError> {
            // quantity → discount → orderdate, each chaining the bitmap.
            let n = w.load_select(ctx, cols, qt, within(s.qty), false)?;
            w.load_select(ctx, cols, dc, within(s.disc), true)?;
            w.load_select(ctx, cols, od, |_| true, true)?;
            // Price decodes against the post-probe selection: a tile
            // with no date hits unpacks nothing from this column.
            w.probe(ctx, &tables.date, od, n, DATE_SLOT);
            w.load_select(ctx, cols, ep, |_| true, true)?;
            ctx.set_phase(Phase::Aggregate);
            let local: u64 = live_lanes(&w.sel)
                .map(|i| w.vals[ep][i] as u64 * w.vals[dc][i] as u64)
                .sum();
            ctx.add_int_ops(n as u64 * 2);
            Ok(local)
        },
        move |ctx, local| sum.add_tile(ctx, std::iter::once(local)),
        failed,
    )
}

/// Flights 2–4: dimension joins + group-by aggregation. The column
/// layout is `[fk…, orderdate, measures…]` per [`QueryId::columns`].
fn join_part<'a>(
    flight: &FlightScan<'a>,
    s: &'a QuerySpec,
    agg: &'a mut GroupBySum,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    let (q, cols, tables) = (flight.q, flight.cols, flight.tables);
    let refs: Vec<&QueryColumn> = cols.iter().collect();
    let cfg = fused_config("ssb_join_fused", &refs, cols.len());
    // Column positions within this query's column list, resolved once
    // per launch.
    let cix = |c: LoColumn| {
        q.columns()
            .iter()
            .position(|&x| x == c)
            .expect("column present")
    };
    let date_ix = cix(LoColumn::OrderDate);
    let rev_ix = cix(LoColumn::Revenue);
    let cost_ix = (cols.len() == 6).then(|| cix(LoColumn::SupplyCost));
    // The dimension joins in probe order, fixed: customer, supplier,
    // part, then date (ROADMAP item 11 swept all 24 orders: this one is
    // the modelled minimum for 7 of the 10 join queries). Table, key
    // column, payload slot. A query probes the tables it built; payload
    // defaults cover the rest.
    let joins: Vec<(&DenseTable, usize, usize)> = [
        (&tables.cust, LoColumn::CustKey),
        (&tables.supp, LoColumn::SuppKey),
        (&tables.part, LoColumn::PartKey),
    ]
    .into_iter()
    .enumerate()
    .filter_map(|(slot, (table, key))| Some((table.as_ref()?, cix(key), slot)))
    .collect();
    // Tiles decode, filter and probe on workers, each returning its
    // (group, value) pairs; the serial merge scatters them into the
    // device group-by table in tile order.
    tile_part(
        cfg,
        || TileScratch::new(cols.len()),
        move |w, ctx| -> Result<Vec<(usize, u64)>, DecodeError> {
            let t = ctx.block_id();
            // Key columns load eagerly (the probes need every lane); the
            // measure columns wait until the joins have pruned the tile
            // and then decode fused against the surviving bitmap.
            let mut n = 0;
            for (i, (c, buf)) in cols.iter().zip(w.vals.iter_mut()).enumerate() {
                if i == rev_ix || Some(i) == cost_ix {
                    continue;
                }
                n = c.load_tile(ctx, t, buf)?;
            }
            all_lanes(n, &mut w.sel);
            // A dimension the query does not join keeps payload zero.
            for pay in &mut w.pays {
                pay.clear();
                pay.resize(n, 0);
            }
            for &(table, key_ix, slot) in &joins {
                w.probe(ctx, table, key_ix, n, slot);
            }
            w.probe(ctx, &tables.date, date_ix, n, DATE_SLOT);

            // Fused decode→select for the measures: only miniblocks with
            // a surviving lane unpack, and the decompressed values never
            // round-trip global memory. `|_| true` leaves the running
            // bitmap as it is.
            w.load_select(ctx, cols, rev_ix, |_| true, true)?;
            if let Some(ci) = cost_ix {
                w.load_select(ctx, cols, ci, |_| true, true)?;
            }
            ctx.set_phase(Phase::Aggregate);
            w.pairs.clear();
            for i in live_lanes(&w.sel) {
                let [cust, supp, part, year] = [0, 1, 2, DATE_SLOT].map(|slot| w.pays[slot][i]);
                let g = (s.group)(cust, supp, part, year);
                let measure = w.vals[rev_ix][i];
                let v = match cost_ix {
                    Some(ci) => (measure as i64 - w.vals[ci][i] as i64) as u64,
                    None => measure as u64,
                };
                w.pairs.push((g, v));
            }
            ctx.add_int_ops(n as u64 * 4);
            Ok(w.pairs.clone())
        },
        move |ctx, pairs| agg.add_tile(ctx, &pairs),
        failed,
    )
}

/// Count and wrapping sum of a column's values, once per filter, as one
/// part: each tile is loaded once (decoded inline when the column is
/// compressed), every filter is evaluated and reduced on the values in
/// registers, and the block adds its `2 × filters` partials to the
/// device accumulators. No decoded value is written back to global
/// memory.
fn scalar_part<'a>(
    scan: &ScalarScan<'a>,
    acc: &'a mut GroupBySum,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    let (col, filters) = (scan.col, scan.filters);
    let cfg = fused_select_config("scalar_filters", &[col]);
    tile_part(
        cfg,
        Vec::new,
        move |vals, ctx| -> Result<Vec<(usize, u64)>, DecodeError> {
            let n = col.load_tile(ctx, ctx.block_id(), vals)?;
            let vals = &vals[..n];
            // Per filter and value: a compare (`Predicate`), then the
            // count and the sum (`Aggregate`).
            let ops = n as u64 * 2 * filters.len() as u64;
            ctx.set_phase(Phase::Predicate);
            ctx.add_int_ops(ops);
            ctx.set_phase(Phase::Aggregate);
            ctx.add_int_ops(ops);
            let mut partials = Vec::with_capacity(2 * filters.len());
            for f in filters {
                let (count, sum) = match *f {
                    None => (n, vals.iter().fold(0i64, |s, &v| s.wrapping_add(v as i64))),
                    // Every kept value is `want`.
                    Some(want) => {
                        let count = vals.iter().filter(|&&v| v == want).count();
                        (count, (want as i64).wrapping_mul(count as i64))
                    }
                };
                let slot = partials.len();
                partials.extend([(slot, count as u64), (slot + 1, sum as u64)]);
            }
            Ok(partials)
        },
        move |ctx, partials| acc.add_tile(ctx, &partials),
        failed,
    )
}

/// Count and wrapping sum of `col`'s values, once per entry of
/// `filters` (`Some(v)`: the values equal to `v`; `None`: all of them),
/// in **one** fused launch: the one-column, no-flight case of
/// [`wave_scan`]. The CPU twin is [`crate::reference::fold_scalar`].
pub fn scalar_filters(
    dev: &Device,
    col: &QueryColumn,
    filters: &[Option<i32>],
) -> Result<Vec<(u64, i64)>, DecodeError> {
    let (mut scan, _) = wave_scan(dev, &[ScalarScan { col, filters }], &[])?;
    Ok(scan.scalars.pop().expect("one column in, one answer out"))
}

/// OmniSci model: the same query logic, one materializing kernel per
/// operator (no tiles, no inlining, no compression).
fn run_materialized(dev: &Device, data: &SsbData, cols: &LoColumns, q: QueryId) -> Vec<(u64, u64)> {
    let prepared = cols.prepare(dev, q.columns());
    let bufs: Vec<&GlobalBuffer<i32>> = prepared
        .iter()
        .map(|c| match c {
            QueryColumn::Plain(b) => b,
            QueryColumn::Encoded(_) => unreachable!("OmniSci stores plain columns"),
        })
        .collect();
    // OmniSci's operator-at-a-time path models a healthy device; a
    // fault here is unrecoverable by design.
    let (mut tables, _) = wave_build(dev, data, &[q]).expect("OmniSci table build");
    let tables = tables.pop().expect("one query in, one set of tables out");
    let s = spec(q);

    if is_flight1(q) {
        // filter(quantity) -> filter(discount) -> probe(date) -> agg.
        let sel_q = materialize::filter(dev, "oms_f_qty", bufs[1], None, within(s.qty));
        let sel_qd = materialize::filter(dev, "oms_f_disc", bufs[2], Some(&sel_q), within(s.disc));
        let (_dpay, sel2) =
            materialize::probe(dev, "oms_probe_date", bufs[0], &tables.date, Some(&sel_qd));
        let agg = materialize::aggregate(dev, "oms_agg", &[bufs[3], bufs[2]], &sel2, 1, |row| {
            (0, row[0] as u64 * row[1] as u64)
        });
        let sum = agg.values()[0];
        return if sum == 0 { vec![] } else { vec![(0, sum)] };
    }

    let cix = |c: LoColumn| {
        q.columns()
            .iter()
            .position(|&x| x == c)
            .expect("column present")
    };
    let mut sel: Option<GlobalBuffer<u8>> = None;
    let mut cpay_buf: Option<GlobalBuffer<i32>> = None;
    let spay_buf: GlobalBuffer<i32>;
    let mut ppay_buf: Option<GlobalBuffer<i32>> = None;
    if uses_cust(q) {
        let (p, s2) = materialize::probe(
            dev,
            "oms_probe_cust",
            bufs[cix(LoColumn::CustKey)],
            tables.cust.as_ref().expect("cust"),
            sel.as_ref(),
        );
        cpay_buf = Some(p);
        // OmniSci materializes the projected intermediate after each
        // operator: all downstream columns round-trip global memory.
        let downstream: Vec<&GlobalBuffer<i32>> = bufs
            .iter()
            .copied()
            .filter(|b| !std::ptr::eq(*b, bufs[cix(LoColumn::CustKey)]))
            .collect();
        let _ = materialize::project(dev, "oms_project_cust", &downstream, &s2);
        sel = Some(s2);
    }
    {
        let (p, s2) = materialize::probe(
            dev,
            "oms_probe_supp",
            bufs[cix(LoColumn::SuppKey)],
            tables.supp.as_ref().expect("supp"),
            sel.as_ref(),
        );
        spay_buf = p;
        let downstream: Vec<&GlobalBuffer<i32>> = bufs
            .iter()
            .copied()
            .filter(|b| !std::ptr::eq(*b, bufs[cix(LoColumn::SuppKey)]))
            .collect();
        let _ = materialize::project(dev, "oms_project_supp", &downstream, &s2);
        sel = Some(s2);
    }
    if uses_part(q) {
        let (p, s2) = materialize::probe(
            dev,
            "oms_probe_part",
            bufs[cix(LoColumn::PartKey)],
            tables.part.as_ref().expect("part"),
            sel.as_ref(),
        );
        ppay_buf = Some(p);
        let downstream: Vec<&GlobalBuffer<i32>> = bufs
            .iter()
            .copied()
            .filter(|b| !std::ptr::eq(*b, bufs[cix(LoColumn::PartKey)]))
            .collect();
        let _ = materialize::project(dev, "oms_project_part", &downstream, &s2);
        sel = Some(s2);
    }
    let (dpay, seld) = materialize::probe(
        dev,
        "oms_probe_date",
        bufs[cix(LoColumn::OrderDate)],
        &tables.date,
        sel.as_ref(),
    );

    let zero = dev.alloc_zeroed::<i32>(bufs[0].len());
    let cpay = cpay_buf.as_ref().unwrap_or(&zero);
    let spay = &spay_buf;
    let ppay = ppay_buf.as_ref().unwrap_or(&zero);
    let measure = bufs[cix(LoColumn::Revenue)];
    let is_q4 = prepared.len() == 6;
    let cost = if is_q4 {
        Some(bufs[cix(LoColumn::SupplyCost)])
    } else {
        None
    };

    let group = s.group;
    let agg = match cost {
        Some(cost) => materialize::aggregate(
            dev,
            "oms_agg",
            &[cpay, spay, ppay, &dpay, measure, cost],
            &seld,
            s.groups,
            move |row| {
                (
                    group(row[0], row[1], row[2], row[3]),
                    (row[4] as i64 - row[5] as i64) as u64,
                )
            },
        ),
        None => materialize::aggregate(
            dev,
            "oms_agg",
            &[cpay, spay, ppay, &dpay, measure],
            &seld,
            s.groups,
            move |row| (group(row[0], row[1], row[2], row[3]), row[4] as u64),
        ),
    };
    let mut out: Vec<(u64, u64)> = agg.non_zero().iter().map(|&(g, v)| (g as u64, v)).collect();
    out.sort_unstable();
    out
}
