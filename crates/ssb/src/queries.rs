//! The 13 SSB queries on the Crystal engine.
//!
//! Each query flight is one fused tile kernel: predicates are evaluated
//! on decoded tiles in registers and the surviving lanes feed the
//! aggregate, with compressed columns decoded *inline* by the tile
//! loads when the system supports it (Section 7). Flights 2–4 probe
//! dimension hash tables on the way and build them first; flight 1
//! joins nothing, because its date predicate is a `d_datekey` range
//! the kernel tests against `lo_orderdate` in registers, as Crystal's
//! own q1.x kernels do. OmniSci runs the same logic
//! operator-at-a-time with materialized intermediates, the date join
//! of flight 1 included.
//!
//! Whatever runs, it makes at most **two launches**. [`wave_build`]
//! builds every dimension table of every join flight asked for, one
//! part per table (no launch without one). [`wave_scan`] runs every
//! fact scan: one **filter part** for all the probe-free members
//! (flight 1, point filters, scans: conjunctions of range predicates
//! over fact columns, then a sum), which loads and decodes each
//! (column, tile) of their union **once**, and one part per join
//! flight. [`try_run_query`] is the one-flight case, a [`FilterScan`]
//! of one column with scalar members the one-column case, and the
//! streaming executor ([`crate::stream`]) passes a whole wave.
//!
//! Dictionary-encoded dimension literals (regions, nations, cities,
//! categories, brands) use fixed ids documented at each query; the
//! selectivities match the SSB spec (e.g. one region = 1/5, one
//! category = 1/25, eight brands = 8/1000).

use std::cell::RefCell;

use tlc_core::column::fused_predicate;
use tlc_core::DecodeError;
use tlc_crystal::agg::block_reduce;
use tlc_crystal::exec::{filter_config, fused_config, materialize};
use tlc_crystal::{DenseTable, GroupBySum, QueryColumn};
use tlc_gpu_sim::{
    all_lanes, live_lanes, BlockCtx, Device, GlobalBuffer, KernelConfig, KernelReport, LaunchPart,
    Phase, WARP_SIZE,
};

use crate::encode::LoColumns;
use crate::gen::{is_calendar_day, LoColumn, SsbData, BRANDS, CITIES, FIRST_YEAR, NATIONS};
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

    /// Kernel launches a partition of this query makes alone: the fact
    /// scan, and before it the build of the dimension tables a join
    /// flight probes. Flight 1 probes nothing and builds nothing.
    pub fn launches(&self) -> u64 {
        if is_flight1(*self) {
            1
        } else {
            2
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
    /// Date payload of a row whose key is in `datekey`: `Some(year
    /// index)` when the row qualifies. Read it through
    /// [`QuerySpec::date_payload`], which applies the range first.
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
    /// The inclusive `d_datekey` range a row's order date must fall
    /// in. It is the whole of flight 1's date predicate, so flight 1
    /// joins nothing: the fused kernel tests `lo_orderdate` against it
    /// in registers (with `clear_non_days`), as Crystal's q1.x kernels
    /// do.
    pub datekey: (i32, i32),
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

/// The calendar half of a date join in registers: clear from `sel`
/// the lanes whose value in `vals` is no `yyyymmdd` calendar day. A key
/// inside a `datekey` range that is no day (19930231) has no row in the
/// date dimension, so the dense table misses it; `within(range)` fused
/// into the load and then this give the join's verdict for every
/// `i32`, not only for keys the generator emits. It runs on the lanes
/// the range left, which are few, so the range test stays a plain
/// compare the load's ballot loop vectorises.
fn clear_non_days(sel: &mut [u32], vals: &[i32]) {
    for (word, lanes) in sel.iter_mut().zip(vals.chunks(WARP_SIZE)) {
        let mut live = *word;
        while live != 0 {
            let lane = live.trailing_zeros();
            live &= live - 1;
            if !is_calendar_day(lanes[lane as usize]) {
                *word &= !(1 << lane);
            }
        }
    }
}

impl QuerySpec {
    /// Date payload of dimension row `row`: the one statement of the
    /// query's date predicate as the table builds, the reference
    /// executor and the OmniSci model read it.
    pub fn date_payload(&self, data: &SsbData, row: usize) -> Option<i32> {
        let in_range = within(self.datekey)(data.date.datekey[row]);
        in_range.then(|| (self.date)(data, row)).flatten()
    }
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
            date: |_, _| Some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (i32::MIN, 24),
            disc: (1, 3),
            // d_year = 1993.
            datekey: (19_930_101, 19_931_231),
            groups: 1,
            group: |_, _, _, _| 0,
        },
        QueryId::Q12 => QuerySpec {
            date: |_, _| Some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (26, 35),
            disc: (4, 6),
            // d_yearmonthnum = 199401.
            datekey: (19_940_101, 19_940_131),
            groups: 1,
            group: |_, _, _, _| 0,
        },
        QueryId::Q13 => QuerySpec {
            date: |_, _| Some(0),
            cust: |_, _| Some(0),
            supp: |_, _| Some(0),
            part: |_, _| Some(0),
            qty: (26, 35),
            disc: (5, 7),
            // d_weeknuminyear = 6 and d_year = 1994: days 36..=42.
            datekey: (19_940_205, 19_940_211),
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
            datekey: ANY,
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
/// and the launch's report (`None` and no launch for no queries). The
/// fused executors pass join flights only: flight 1 probes no table.
/// The OmniSci model, which runs the date join as written, builds
/// flight 1's date table here.
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
                    .map(|r| (datekey[r], s.date_payload(data, r)))
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
/// fault surfaces as a typed [`DecodeError`] instead of a panic, on
/// every system. The fleet ([`crate::fleet`]) builds on this. It is
/// the one-member evaluate step (`wave_pass`): for a join flight a
/// build launch, then a scan launch; for flight 1 the scan launch
/// alone, its filter part with one member.
pub fn try_run_query(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    q: QueryId,
) -> Result<Vec<(u64, u64)>, DecodeError> {
    if cols.system == System::OmniSci {
        return run_materialized(dev, data, cols, q);
    }
    if is_flight1(q) {
        let member = FilterMember::Flight1 {
            q,
            columns: [0, 1, 2, 3],
        };
        let mut pass = wave_pass(dev, data, cols, q.columns(), &[member], &[], 1.0)?;
        return match pass.filters.pop() {
            Some(WaveAnswer::Groups(groups)) => Ok(groups),
            _ => unreachable!("one flight in, its groups out"),
        };
    }
    let mut pass = wave_pass(dev, data, cols, &[], &[], &[q], 1.0)?;
    Ok(pass.flights.pop().expect("one flight in, one answer out"))
}

/// What one pass over a set of columns answered, and how its device
/// seconds split among its owners: the filter part (when the pass has
/// a probe-free member), then the join flights.
pub(crate) struct WavePass {
    /// Per member of the filter part, in the part's order.
    pub(crate) filters: Vec<WaveAnswer>,
    /// Per join flight: its groups.
    pub(crate) flights: Vec<Vec<(u64, u64)>>,
    /// Per owner, its fraction of the pass's seconds; they sum to 1.
    pub(crate) shares: Vec<f64>,
}

/// The evaluate step, for one query ([`try_run_query`]) or a
/// partition's whole run ([`crate::stream`]): at most two launches on
/// `dev` over the columns `lo`, as [`LoColumns::try_prepare`] readies
/// them. [`wave_build`] builds the dimension tables of every join
/// flight (no launch without one) and [`wave_scan`] runs the filter
/// part, which decodes each of the columns `read` once a tile for all
/// of `filter`, and one part per join flight, each decoding its own
/// columns inline.
///
/// Shares: a launch's seconds `T` split among its parts by what the
/// model charges each part alone, `T × sᵢ / Σs`
/// ([`KernelReport::share`]); an owner's parts are the filter part, or
/// its flight's scan and table builds. An owner of every part pays
/// exactly 1: a one-member run is priced as its launches are.
pub(crate) fn wave_pass(
    dev: &Device,
    dims: &SsbData,
    lo: &LoColumns,
    read: &[LoColumn],
    filter: &[FilterMember],
    flights: &[QueryId],
    scale: f64,
) -> Result<WavePass, DecodeError> {
    let read = lo.try_prepare(dev, read)?;
    let columns: Vec<&QueryColumn> = read.iter().map(|c| &**c).collect();
    let prepared = flights
        .iter()
        .map(|q| lo.try_prepare(dev, q.columns()))
        .collect::<Result<Vec<_>, _>>()?;
    let flight_cols: Vec<Vec<&QueryColumn>> = prepared
        .iter()
        .map(|cols| cols.iter().map(|c| &**c).collect())
        .collect();
    let (tables, build) = wave_build(dev, dims, flights)?;
    let filter_scan = FilterScan {
        columns: &columns,
        members: filter,
    };
    let flight_scans: Vec<FlightScan<'_>> = flights
        .iter()
        .zip(flight_cols.iter().zip(&tables))
        .map(|(&q, (cols, tables))| FlightScan { q, cols, tables })
        .collect();
    let (answers, scan) = wave_scan(dev, &filter_scan, &flight_scans)?;

    let launch_s = dev.params().kernel_launch_s;
    let scaled = |launch: &KernelReport| launch.scaled_seconds(scale, launch_s);
    let filter_owner = usize::from(!filter.is_empty());
    let mut owed = vec![0.0f64; filter_owner + flights.len()];
    let mut total = 0.0f64;
    if let Some(build) = &build {
        let seconds = scaled(build);
        total += seconds;
        let mut first = 0;
        for (owed, tables) in owed[filter_owner..].iter_mut().zip(&tables) {
            let parts = first..first + tables.built();
            first = parts.end;
            *owed += seconds * build.share(parts);
        }
    }
    let seconds = scaled(&scan);
    total += seconds;
    for (part, owed) in owed.iter_mut().enumerate() {
        *owed += seconds * scan.share(part..part + 1);
    }
    Ok(WavePass {
        filters: answers.filters,
        flights: answers.flights,
        shares: owed.into_iter().map(|owed| owed / total).collect(),
    })
}

/// A probe-free member of a scan launch: a conjunction of range
/// predicates over fact columns, then a sum. Column positions index
/// [`FilterScan::columns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMember {
    /// Count and wrapping sum of a column's values: those equal to
    /// `filter`, or all of them. The one-column case.
    Scalar {
        /// The column.
        column: usize,
        /// `Some(v)`: the values equal to `v`; `None`: all of them.
        filter: Option<i32>,
    },
    /// A flight-1 query: its quantity, discount and order-date ranges,
    /// then Σ `extendedprice × discount`.
    Flight1 {
        /// q1.1, q1.2 or q1.3.
        q: QueryId,
        /// Its columns in [`QueryId::columns`] order: order date,
        /// quantity, discount, extended price.
        columns: [usize; 4],
    },
}

/// The probe-free members of a scan launch and the columns they read:
/// the launch's filter part (none without a member).
#[derive(Default)]
pub struct FilterScan<'a> {
    /// Distinct columns; each one a member reads is loaded, and
    /// decoded inline when compressed, once a tile.
    pub columns: &'a [&'a QueryColumn],
    /// The members.
    pub members: &'a [FilterMember],
}

/// A member's answer payload (`tlc_serve::QueryAnswer` is this type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveAnswer {
    /// Grouped aggregate rows from a flight query, merged in partition
    /// order, zero-sum groups dropped.
    Groups(Vec<(u64, u64)>),
    /// Count and wrapping sum from a scan or point filter.
    Scalar {
        /// Values matched (scan: all values).
        count: u64,
        /// Wrapping sum of the matched values.
        sum: i64,
    },
}

/// One join flight's fact scan: a part of the scan launch.
pub struct FlightScan<'a> {
    /// The flight (2–4).
    pub q: QueryId,
    /// Its columns in [`QueryId::columns`] order.
    pub cols: &'a [&'a QueryColumn],
    /// Its dimension tables, built by [`wave_build`].
    pub tables: &'a Tables,
}

/// What the scan launch answered.
pub struct ScanAnswers {
    /// Per [`FilterMember`], in member order: a scalar's count and
    /// sum, a flight 1's one group (none when its sum is zero).
    pub filters: Vec<WaveAnswer>,
    /// Per [`FlightScan`]: the non-empty groups, sorted by group.
    pub flights: Vec<Vec<(u64, u64)>>,
}

/// Every fact scan of a wave in **one** launch, `wave_scan`: the filter
/// part (`filter_part`) serving every probe-free member, then one
/// part per join flight (`join_part`), which loads and decodes its
/// own tiles inline. The first tile that fails, in part and then tile
/// order, is the launch's error (or the launch's own); otherwise the
/// answers and the launch's report.
pub fn wave_scan(
    dev: &Device,
    filter: &FilterScan<'_>,
    flights: &[FlightScan<'_>],
) -> Result<(ScanAnswers, KernelReport), DecodeError> {
    let plan = FilterPlan::new(filter);
    // One accumulator buffer for the whole filter part: a member's
    // slots follow those of the members before it.
    let mut filter_acc = dev.alloc_zeroed::<u64>(plan.slots);
    let specs: Vec<QuerySpec> = flights.iter().map(|f| spec(f.q)).collect();
    let mut flight_accs: Vec<GroupBySum> = specs
        .iter()
        .map(|s| GroupBySum::new(dev, s.groups))
        .collect();
    let failed = RefCell::new(None);
    let mut parts = Vec::with_capacity(1 + flights.len());
    if !plan.members.is_empty() {
        parts.push(filter_part(filter.columns, &plan, &mut filter_acc, &failed));
    }
    for ((f, s), acc) in flights.iter().zip(&specs).zip(&mut flight_accs) {
        parts.push(join_part(f, s, acc, &failed));
    }
    let report = dev
        .try_launch_parts("wave_scan", parts)
        .map_err(DecodeError::Launch)?;
    if let Some(e) = failed.into_inner() {
        return Err(e);
    }
    let slots = filter_acc.as_slice_unaccounted();
    let filters = plan.members.iter().map(|m| match m.measure {
        Measure::CountSum(_) => WaveAnswer::Scalar {
            count: slots[m.slot],
            sum: slots[m.slot + 1] as i64,
        },
        Measure::Product(..) => WaveAnswer::Groups(match slots[m.slot] {
            0 => vec![],
            sum => vec![(0, sum)],
        }),
    });
    let answers = ScanAnswers {
        filters: filters.collect(),
        flights: flight_accs
            .iter()
            .map(|agg| {
                let groups = agg.non_zero();
                groups.iter().map(|&(g, v)| (g as u64, v)).collect()
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

/// One range a member's rows must pass on one column.
#[derive(Clone, Copy)]
struct Conjunct {
    col: usize,
    range: (i32, i32),
    /// The range is a date join: a passing value is also a calendar
    /// day ([`clear_non_days`]).
    day: bool,
}

/// What a member sums over its surviving lanes.
#[derive(Clone, Copy)]
enum Measure {
    /// Count and wrapping sum of a column: two accumulator slots.
    CountSum(usize),
    /// Σ of the product of two columns: one slot.
    Product(usize, usize),
}

impl Measure {
    fn columns(self) -> impl Iterator<Item = usize> {
        let (a, b) = match self {
            Measure::CountSum(c) => (c, None),
            Measure::Product(a, b) => (a, Some(b)),
        };
        std::iter::once(a).chain(b)
    }

    fn slots(self) -> usize {
        match self {
            Measure::CountSum(_) => 2,
            Measure::Product(..) => 1,
        }
    }
}

/// A [`FilterMember`] as the part runs it.
struct PlannedMember {
    conjuncts: Vec<Conjunct>,
    measure: Measure,
    /// Its first accumulator slot.
    slot: usize,
}

/// One conjunct of one member at the load of its column.
struct Test {
    member: usize,
    conjunct: Conjunct,
    /// The member has a running selection by now (an earlier column
    /// held a conjunct of its); otherwise every lane is live.
    chained: bool,
}

/// One column of the part's tile loop: loaded once a tile, for every
/// member that reads it.
struct Load {
    col: usize,
    /// The members' conjuncts on the column, in member order. The
    /// first is fused into the load, the others run over the values in
    /// registers. None: a measure-only column.
    tests: Vec<Test>,
    /// The members (conjunct or measure) whose running selections,
    /// ORed, are the load's incoming selection. Empty when some reader
    /// has no selection yet: every lane loads.
    incoming: Vec<usize>,
}

/// The filter part's tile loop, resolved once per launch.
struct FilterPlan {
    members: Vec<PlannedMember>,
    /// Predicate columns in order of first mention (members in order,
    /// each one's conjuncts in order), then the measure-only ones: a
    /// measure decodes against everything its readers have filtered.
    loads: Vec<Load>,
    /// Accumulator slots of all members.
    slots: usize,
}

impl FilterPlan {
    fn new(scan: &FilterScan<'_>) -> Self {
        let mut slots = 0;
        let members: Vec<PlannedMember> = scan
            .members
            .iter()
            .map(|m| {
                let (conjuncts, measure) = match *m {
                    FilterMember::Scalar { column, filter } => {
                        let range = filter.map_or(ANY, |v| (v, v));
                        let conjunct = Conjunct {
                            col: column,
                            range,
                            day: false,
                        };
                        (vec![conjunct], Measure::CountSum(column))
                    }
                    FilterMember::Flight1 {
                        q,
                        columns: [od, qt, dc, ep],
                    } => {
                        let s = spec(q);
                        // quantity → discount → orderdate: the cheap,
                        // unselective-to-decode columns lead and the
                        // date column decodes against both.
                        let conjuncts = [
                            (qt, s.qty, false),
                            (dc, s.disc, false),
                            (od, s.datekey, true),
                        ]
                        .map(|(col, range, day)| Conjunct { col, range, day });
                        (conjuncts.to_vec(), Measure::Product(ep, dc))
                    }
                };
                let slot = slots;
                slots += measure.slots();
                PlannedMember {
                    conjuncts,
                    measure,
                    slot,
                }
            })
            .collect();
        let mut order: Vec<usize> = Vec::new();
        let tested = members
            .iter()
            .flat_map(|m| m.conjuncts.iter().map(|c| c.col));
        let measured = members.iter().flat_map(|m| m.measure.columns());
        for col in tested.chain(measured) {
            if !order.contains(&col) {
                order.push(col);
            }
        }
        let mut selecting = vec![false; members.len()];
        let loads = order
            .into_iter()
            .map(|col| {
                let reads = |m: &PlannedMember| {
                    m.conjuncts.iter().any(|c| c.col == col)
                        || m.measure.columns().any(|c| c == col)
                };
                let readers: Vec<usize> =
                    (0..members.len()).filter(|&i| reads(&members[i])).collect();
                let incoming = match readers.iter().all(|&i| selecting[i]) {
                    true => readers,
                    false => Vec::new(),
                };
                let mut tests = Vec::new();
                for (member, m) in members.iter().enumerate() {
                    for &conjunct in m.conjuncts.iter().filter(|c| c.col == col) {
                        tests.push(Test {
                            member,
                            conjunct,
                            chained: selecting[member],
                        });
                        selecting[member] = true;
                    }
                }
                Load {
                    col,
                    tests,
                    incoming,
                }
            })
            .collect();
        FilterPlan {
            members,
            loads,
            slots,
        }
    }
}

/// Per-worker tile buffers of the filter part.
struct FilterScratch {
    /// One value buffer per column of the scan.
    vals: Vec<Vec<i32>>,
    /// Each member's running selection, one ballot word per warp.
    words: Vec<Vec<u32>>,
    /// The selection the current load or test writes.
    next: Vec<u32>,
    /// The OR of several readers' selections.
    any: Vec<u32>,
}

/// `word ∧= other`, warp by warp (words missing from `other` are dead).
fn and_words(word: &mut [u32], other: &[u32]) {
    for (i, w) in word.iter_mut().enumerate() {
        *w &= other.get(i).copied().unwrap_or(0);
    }
}

/// The filter part: every probe-free member of the wave in one tile
/// loop. Per tile each column some member reads is loaded **once**
/// ([`QueryColumn::load_tile_select`], decoding inline): its first
/// conjunct's range is fused into the load, the other members' conjuncts run
/// over the values in registers ([`fused_predicate`]), and each member
/// carries its own ballot words through its own conjunction. A load
/// whose readers all have a selection decodes against their OR, so
/// downstream columns skip miniblocks no reader has a live lane in; no
/// decoded tile is staged back to memory. Then every member reduces
/// its measure over its surviving lanes and the block adds one partial
/// per accumulator slot to the part's one buffer.
///
/// A date conjunct ([`Conjunct::day`]) is the whole of flight 1's date
/// join, evaluated in registers: it costs the probe's two operations a
/// value and none of its gathers.
fn filter_part<'a>(
    columns: &'a [&'a QueryColumn],
    plan: &'a FilterPlan,
    acc: &'a mut GlobalBuffer<u64>,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    let read: Vec<&QueryColumn> = plan.loads.iter().map(|l| columns[l.col]).collect();
    // Two columns stay live to the aggregate where a product is
    // summed; a count and sum consume their column as it loads.
    let product = |m: &PlannedMember| matches!(m.measure, Measure::Product(..));
    let live_columns = if plan.members.iter().any(product) {
        2
    } else {
        1
    };
    let accumulators: Vec<usize> = plan.members.iter().map(|m| m.measure.slots()).collect();
    let cfg = filter_config("filter", &read, live_columns, &accumulators);
    let mut pairs: Vec<(usize, u64)> = Vec::with_capacity(plan.slots);
    tile_part(
        cfg,
        || FilterScratch {
            vals: vec![Vec::new(); columns.len()],
            words: vec![Vec::new(); plan.members.len()],
            next: Vec::new(),
            any: Vec::new(),
        },
        move |w, ctx| -> Result<Vec<u64>, DecodeError> {
            let t = ctx.block_id();
            let mut n = 0;
            for load in &plan.loads {
                let (col, vals) = (columns[load.col], &mut w.vals[load.col]);
                let sel_in = match load.incoming.as_slice() {
                    [] => None,
                    [one] => Some(w.words[*one].as_slice()),
                    [first, others @ ..] => {
                        w.any.clone_from(&w.words[*first]);
                        for &m in others {
                            let words = w.any.iter_mut().zip(&w.words[m]);
                            words.for_each(|(any, word)| *any |= word);
                        }
                        ctx.set_phase(Phase::Predicate);
                        ctx.add_int_ops((w.any.len() * others.len()) as u64);
                        Some(w.any.as_slice())
                    }
                };
                n = match load.tests.first() {
                    Some(test) => {
                        let passes = within(test.conjunct.range);
                        col.load_tile_select(ctx, t, passes, sel_in, &mut w.next, vals)?
                    }
                    None => col.load_tile_select(ctx, t, |_| true, sel_in, &mut w.next, vals)?,
                };
                for (i, test) in load.tests.iter().enumerate() {
                    let word = &mut w.words[test.member];
                    if i > 0 {
                        let sel_in = test.chained.then_some(word.as_slice());
                        let passes = within(test.conjunct.range);
                        fused_predicate(ctx, &vals[..n], passes, sel_in, &mut w.next);
                        std::mem::swap(word, &mut w.next);
                    } else if test.chained {
                        // The load's selection is `incoming ∧ pred`,
                        // and `incoming` may hold other readers' lanes.
                        and_words(word, &w.next);
                    } else {
                        word.clone_from(&w.next);
                    }
                    if test.conjunct.day {
                        clear_non_days(word, &vals[..n]);
                        ctx.set_phase(Phase::Predicate);
                        ctx.add_int_ops(n as u64 * 2);
                    }
                }
            }
            // Per member and value: the count (or the multiply) and
            // the add.
            ctx.set_phase(Phase::Aggregate);
            ctx.add_int_ops(n as u64 * 2 * plan.members.len() as u64);
            let mut partials = Vec::with_capacity(plan.slots);
            for (m, word) in plan.members.iter().zip(&w.words) {
                match m.measure {
                    Measure::CountSum(c) => {
                        let count: u32 = word.iter().map(|w| w.count_ones()).sum();
                        let vals = &w.vals[c];
                        let sum = match count as usize == n {
                            true => vals[..n]
                                .iter()
                                .fold(0i64, |s, &v| s.wrapping_add(v as i64)),
                            false => {
                                live_lanes(word).fold(0i64, |s, i| s.wrapping_add(vals[i] as i64))
                            }
                        };
                        partials.extend([count as u64, sum as u64]);
                    }
                    Measure::Product(a, b) => {
                        let (a, b) = (&w.vals[a], &w.vals[b]);
                        partials.push(live_lanes(word).map(|i| a[i] as u64 * b[i] as u64).sum());
                    }
                }
            }
            Ok(partials)
        },
        // The serial merge adds the tile's partials to the device
        // accumulators in tile order (the atomic-add traffic lives
        // here): a product sum goes through the block-wide reduction
        // of `ScalarSum`, a count and a sum cost what a group-by pair
        // does.
        move |ctx, partials| {
            ctx.set_phase(Phase::Aggregate);
            for m in &plan.members {
                match m.measure {
                    Measure::CountSum(_) => ctx.add_int_ops(2 * 2),
                    Measure::Product(..) => block_reduce(ctx, 1),
                }
            }
            pairs.clear();
            pairs.extend(partials.into_iter().enumerate());
            ctx.warp_atomic_add_u64(acc, &pairs);
        },
        failed,
    )
}

/// Per-worker tile buffers of the join kernels, built once per worker
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

    /// Fused decode of column `i` against the running bitmap: only
    /// miniblocks with a surviving lane unpack. Returns the tile's
    /// logical length.
    fn load_selected(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        cols: &[&QueryColumn],
        i: usize,
    ) -> Result<usize, DecodeError> {
        let t = ctx.block_id();
        let sel_in = Some(self.sel.as_slice());
        let n = cols[i].load_tile_select(
            ctx,
            t,
            |_| true,
            sel_in,
            &mut self.next,
            &mut self.vals[i],
        )?;
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

/// Flights 2–4: dimension joins + group-by aggregation. The column
/// layout is `[fk…, orderdate, measures…]` per [`QueryId::columns`].
fn join_part<'a>(
    flight: &FlightScan<'a>,
    s: &'a QuerySpec,
    agg: &'a mut GroupBySum,
    failed: &'a RefCell<Option<DecodeError>>,
) -> LaunchPart<'a> {
    let (q, cols, tables) = (flight.q, flight.cols, flight.tables);
    let cfg = fused_config("ssb_join_fused", cols, cols.len());
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
            // round-trip global memory.
            w.load_selected(ctx, cols, rev_ix)?;
            if let Some(ci) = cost_ix {
                w.load_selected(ctx, cols, ci)?;
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

/// OmniSci model: the same query logic, one materializing kernel per
/// operator (no tiles, no inlining, no compression).
fn run_materialized(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    q: QueryId,
) -> Result<Vec<(u64, u64)>, DecodeError> {
    let prepared = cols.try_prepare(dev, q.columns())?;
    let bufs: Vec<&GlobalBuffer<i32>> = prepared
        .iter()
        .map(|c| match &**c {
            QueryColumn::Plain(b) => b,
            QueryColumn::Encoded(_) => unreachable!("OmniSci stores plain columns"),
        })
        .collect();
    let (mut tables, _) = wave_build(dev, data, &[q])?;
    let tables = tables.pop().expect("one query in, one set of tables out");
    let s = spec(q);

    if is_flight1(q) {
        // filter(quantity) -> filter(discount) -> probe(date) -> agg.
        let sel_q = materialize::filter(dev, "oms_f_qty", bufs[1], None, within(s.qty))?;
        let sel_qd = materialize::filter(dev, "oms_f_disc", bufs[2], Some(&sel_q), within(s.disc))?;
        let (_dpay, sel2) =
            materialize::probe(dev, "oms_probe_date", bufs[0], &tables.date, Some(&sel_qd))?;
        let agg = materialize::aggregate(dev, "oms_agg", &[bufs[3], bufs[2]], &sel2, 1, |row| {
            (0, row[0] as u64 * row[1] as u64)
        })?;
        let sum = agg.values()[0];
        return Ok(if sum == 0 { vec![] } else { vec![(0, sum)] });
    }

    let cix = |c: LoColumn| {
        q.columns()
            .iter()
            .position(|&x| x == c)
            .expect("column present")
    };
    // Customer, supplier, part, in that order, as the flight joins
    // them; after each probe OmniSci materializes the projected
    // intermediate: all downstream columns round-trip global memory.
    let joins = [
        (LoColumn::CustKey, &tables.cust, "cust"),
        (LoColumn::SuppKey, &tables.supp, "supp"),
        (LoColumn::PartKey, &tables.part, "part"),
    ];
    let mut sel: Option<GlobalBuffer<u8>> = None;
    let mut pays: [Option<GlobalBuffer<i32>>; 3] = Default::default();
    for ((key, table, dim), pay) in joins.into_iter().zip(&mut pays) {
        let Some(table) = table else { continue };
        let fk = bufs[cix(key)];
        let name = format!("oms_probe_{dim}");
        let (p, s2) = materialize::probe(dev, &name, fk, table, sel.as_ref())?;
        *pay = Some(p);
        let downstream: Vec<_> = bufs
            .iter()
            .copied()
            .filter(|&b| !std::ptr::eq(b, fk))
            .collect();
        materialize::project(dev, &format!("oms_project_{dim}"), &downstream, &s2)?;
        sel = Some(s2);
    }
    let (dpay, seld) = materialize::probe(
        dev,
        "oms_probe_date",
        bufs[cix(LoColumn::OrderDate)],
        &tables.date,
        sel.as_ref(),
    )?;

    let zero = dev.alloc_zeroed::<i32>(bufs[0].len());
    let [cpay, spay, ppay] = pays.each_ref().map(|p| p.as_ref().unwrap_or(&zero));
    let mut inputs = vec![cpay, spay, ppay, &dpay, bufs[cix(LoColumn::Revenue)]];
    if prepared.len() == 6 {
        // q4.x: profit, revenue less supply cost.
        inputs.push(bufs[cix(LoColumn::SupplyCost)]);
    }
    let group = s.group;
    let agg = materialize::aggregate(dev, "oms_agg", &inputs, &seld, s.groups, move |row| {
        let cost = row.get(5).map_or(0, |&c| c as i64);
        (
            group(row[0], row[1], row[2], row[3]),
            (row[4] as i64 - cost) as u64,
        )
    })?;
    let mut out: Vec<(u64, u64)> = agg.non_zero().iter().map(|&(g, v)| (g as u64, v)).collect();
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StreamSpec;
    use crate::reference::run_reference;

    const FLIGHT1: [QueryId; 3] = [QueryId::Q11, QueryId::Q12, QueryId::Q13];

    /// The date predicates of q1.1–q1.3 as the SSB text states them,
    /// over the dimension's attribute columns.
    fn as_written(q: QueryId, data: &SsbData, row: usize) -> bool {
        let d = &data.date;
        match q {
            QueryId::Q11 => d.year[row] == 1993,
            QueryId::Q12 => d.yearmonthnum[row] == 199_401,
            QueryId::Q13 => d.weeknuminyear[row] == 6 && d.year[row] == 1994,
            _ => unreachable!("flight 1"),
        }
    }

    #[test]
    fn the_datekey_range_selects_the_rows_the_attribute_predicates_did() {
        let data = SsbData::generate(0.001);
        for q in FLIGHT1 {
            let s = spec(q);
            let mut selected = 0;
            for row in 0..data.date.datekey.len() {
                let want = as_written(q, &data, row);
                assert_eq!(
                    s.date_payload(&data, row),
                    want.then_some(0),
                    "{}",
                    q.name()
                );
                selected += usize::from(want);
            }
            let days = [365, 31, 7][FLIGHT1.iter().position(|&f| f == q).expect("listed")];
            assert_eq!(selected, days, "{}", q.name());
        }
    }

    #[test]
    fn the_in_register_date_test_is_the_dense_tables_verdict_for_every_key() {
        let data = SsbData::generate(0.001);
        let dev = Device::v100();
        // Every key from the day before the dimension starts to the day
        // after it ends, days and non-days alike, and the ends of `i32`.
        let mut keys: Vec<i32> = (19_911_231..=19_990_101).collect();
        keys.extend([i32::MIN, -19_930_101, -1, 0, i32::MAX]);
        for q in FLIGHT1 {
            let s = spec(q);
            // The table the date join probed (and OmniSci's still does).
            let (tables, _) = wave_build(&dev, &data, &[q]).expect("clean device");
            let date = &tables[0].date;
            // Per tile of keys: the table's ballot words, and the two
            // steps the kernel takes in registers, the range fused into
            // the load and then the calendar test on what it left.
            let (mut probed, mut in_registers) = (Vec::new(), Vec::new());
            let tiles = keys.len().div_ceil(tlc_crystal::TILE);
            dev.launch(KernelConfig::new("probe", tiles, 128), |ctx| {
                let lo = ctx.block_id() * tlc_crystal::TILE;
                let tile = &keys[lo..keys.len().min(lo + tlc_crystal::TILE)];
                let (mut sel, mut pays) = (Vec::new(), vec![0; tile.len()]);
                all_lanes(tile.len(), &mut sel);
                date.probe(ctx, tile, &mut sel, &mut pays);
                probed.push(sel);
                let mut sel = Vec::new();
                fused_predicate(ctx, tile, within(s.datekey), None, &mut sel);
                clear_non_days(&mut sel, tile);
                in_registers.push(sel);
            });
            assert_eq!(in_registers, probed, "{}", q.name());
            assert!(
                probed.iter().flatten().any(|&word| word != 0),
                "{}",
                q.name()
            );
        }
        // Inside a range and no day: the range alone would pass them.
        let verdict = |q: QueryId, key: i32| {
            let mut sel = [u32::from(within(spec(q).datekey)(key))];
            clear_non_days(&mut sel, &[key]);
            sel[0] == 1
        };
        assert!(within(spec(QueryId::Q11).datekey)(19_930_231));
        assert!(!verdict(QueryId::Q11, 19_930_231) && verdict(QueryId::Q11, 19_930_228));
        assert!(verdict(QueryId::Q11, 19_930_101) && verdict(QueryId::Q11, 19_931_231));
        assert!(!verdict(QueryId::Q12, 19_940_100) && verdict(QueryId::Q12, 19_940_101));
        assert!(verdict(QueryId::Q12, 19_940_131) && !verdict(QueryId::Q12, 19_940_132));
    }

    /// Slot bits of each query's date, customer, supplier and part
    /// tables as `wave_build` makes them (0: not built).
    fn slot_bits(data: &SsbData) -> Vec<[u32; 4]> {
        let dev = Device::v100();
        let (tables, _) = wave_build(&dev, data, &QueryId::ALL).expect("clean device");
        let bits = |t: &Tables| {
            [
                Some(&t.date),
                t.cust.as_ref(),
                t.supp.as_ref(),
                t.part.as_ref(),
            ]
            .map(|t| t.map_or(0, DenseTable::slot_bits))
        };
        tables.iter().map(bits).collect()
    }

    #[test]
    fn every_table_is_as_narrow_as_its_payloads_allow() {
        // Flight 1's date join (OmniSci's) and every supplier of q2.x
        // and customer of q4.2 / q4.3 is a semi-join: one bit a key. A
        // year index, a nation, a city and q4.x's categories and brands
        // fit a byte; q2.x's brands (240–279, 260–267, 260) need two.
        #[rustfmt::skip]
        let want: [[u32; 4]; 13] = [
            [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0],
            [8, 0, 1, 16], [8, 0, 1, 16], [8, 0, 1, 16],
            [8, 8, 8, 0], [8, 8, 8, 0], [8, 8, 8, 0], [8, 8, 8, 0],
            [8, 8, 1, 1], [8, 1, 8, 8], [8, 1, 8, 8],
        ];
        // The dimensions of the `bench/` store (2 M rows, SF ≈ 1/3) at
        // seeds 1 and 2.
        for seed in [1, 2] {
            let dims = StreamSpec::for_rows(seed, 2_000_000, 62_500).dims();
            assert_eq!(slot_bits(&dims), want, "seed {seed}");
        }
        // The width follows the rows, not the query: at SF 0.01 no
        // supplier of nation 3 or of city 40 or 44 exists, so q3.2–q3.4's
        // and q4.3's supplier tables have no row, and a table with no
        // row is a bitmap with no bit set.
        let mut small = want;
        for q in [7, 8, 9, 12] {
            small[q][2] = 1;
        }
        assert_eq!(slot_bits(&SsbData::generate(0.01)), small);
    }

    #[test]
    fn every_executor_agrees_on_orders_at_the_edges_of_each_range() {
        let mut data = SsbData::generate(0.002);
        // Orders that pass quantity and discount for their query, dated
        // the day before, the first, the last and the day after.
        let edges = [
            (
                QueryId::Q11,
                [19_921_231, 19_930_101, 19_931_231, 19_940_101],
                10,
                2,
            ),
            (
                QueryId::Q12,
                [19_931_231, 19_940_101, 19_940_131, 19_940_201],
                30,
                5,
            ),
            (
                QueryId::Q13,
                [19_940_204, 19_940_205, 19_940_211, 19_940_212],
                30,
                6,
            ),
        ];
        let lo = &mut data.lineorder;
        // The rest of the table lies outside every range.
        for date in &mut lo.orderdate {
            *date = 19_970_704;
        }
        let mut row = 0;
        let mut want = Vec::new();
        for (q, dates, quantity, discount) in edges {
            let mut sum = 0u64;
            for (i, date) in dates.into_iter().enumerate() {
                // Scattered over tiles, one edge a tile.
                row += 700;
                lo.orderdate[row] = date;
                lo.quantity[row] = quantity;
                lo.discount[row] = discount;
                if i == 1 || i == 2 {
                    sum += lo.extendedprice[row] as u64 * discount as u64;
                }
            }
            want.push((q, sum));
        }
        let systems = [
            System::GpuStar,
            System::None,
            System::NvComp,
            System::OmniSci,
        ];
        let run = |data: &SsbData, q: QueryId, system| {
            let dev = Device::v100();
            let cols = LoColumns::build(&dev, data, system, q.columns());
            run_query(&dev, data, &cols, q)
        };
        for &(q, sum) in &want {
            let reference = run_reference(&data, q);
            assert_eq!(reference, [(0, sum)], "{}", q.name());
            for system in systems {
                let got = run(&data, q, system);
                assert_eq!(got, reference, "{} under {system:?}", q.name());
            }
        }
        // An order inside q1.1's range on a day that does not exist has
        // no dimension row: the join misses it (the reference executor
        // has no such key to look up), and so does the test in registers.
        row += 700;
        let lo = &mut data.lineorder;
        (lo.orderdate[row], lo.quantity[row], lo.discount[row]) = (19_930_231, 10, 2);
        for system in systems {
            let got = run(&data, QueryId::Q11, system);
            assert_eq!(got, [(0, want[0].1)], "q1.1 under {system:?}");
        }
    }
}
