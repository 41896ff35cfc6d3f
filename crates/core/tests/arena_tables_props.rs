//! Property tests: the arena-backed measurement tables (lazy profile slots,
//! merged cell chains, sparse wall entries) are observation-equivalent to
//! plain dense layouts — `Vec`s indexed by event id.  Each test drives the
//! real table and a dense reference model through the same random probe /
//! batch-fold / reset sequence, then checks every observable surface: point
//! reads, iteration order, totals, and the canonical encoding (what KTAS
//! images carry and state digests hash).  The encoding oracle is built here
//! from the model alone: its non-default cells, keyed by id in ascending
//! order, written field by field — so neither the arena's allocation order
//! nor its left-behind default slots can leak into the bytes.  The same
//! checks run again on the table decoded from those bytes, so the codec is
//! held to the dense model too.

use ktau_core::measure::{MergedStats, MergedTable, WallTable};
use ktau_core::profile::{AtomicStats, EntryExitStats, Profile};
use ktau_core::wire::{Reader, Writer};
use ktau_core::EventId;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Dense reference arithmetic (the stats math is shared by both layouts; the
// property under test is the *storage*, so the model re-states it verbatim)
// ---------------------------------------------------------------------------

fn model_record(e: &mut EntryExitStats, incl: u64, excl: u64, outermost: bool) {
    e.count += 1;
    e.excl_ns += excl;
    if outermost {
        e.incl_ns += incl;
        if e.count == 1 || incl < e.min_incl_ns {
            e.min_incl_ns = incl;
        }
        if incl > e.max_incl_ns {
            e.max_incl_ns = incl;
        }
    }
}

fn model_atomic(a: &mut AtomicStats, v: u64) {
    if a.count == 0 {
        a.min = v;
        a.max = v;
    } else {
        a.min = a.min.min(v);
        a.max = a.max.max(v);
    }
    a.count += 1;
    a.sum += v;
}

/// The dense reference profile: stats and recursion counters indexed by
/// event id (grown together), atomics indexed by event id, and the live
/// activation stack.
struct DenseProfile {
    entries: Vec<EntryExitStats>,
    active: Vec<u32>,
    atomics: Vec<AtomicStats>,
    stack: Vec<Frame>,
}

/// The canonical profile encoding, built from the dense model: non-default
/// entry rows, then non-default atomic rows, each as `(id, fields)` in
/// ascending id order, then the activation stack.
fn profile_oracle(m: &DenseProfile) -> Vec<u8> {
    let mut w = Writer::new();
    let live: Vec<usize> = (0..m.entries.len())
        .filter(|&i| m.entries[i] != EntryExitStats::default() || m.active[i] != 0)
        .collect();
    w.u32(live.len() as u32);
    for i in live {
        let e = &m.entries[i];
        w.u32(i as u32);
        for v in [e.count, e.incl_ns, e.excl_ns, e.min_incl_ns, e.max_incl_ns] {
            w.u64(v);
        }
        w.u32(m.active[i]);
    }
    let live: Vec<usize> = (0..m.atomics.len())
        .filter(|&i| m.atomics[i] != AtomicStats::default())
        .collect();
    w.u32(live.len() as u32);
    for i in live {
        let a = &m.atomics[i];
        w.u32(i as u32);
        for v in [a.count, a.sum, a.min, a.max] {
            w.u64(v);
        }
    }
    w.u32(m.stack.len() as u32);
    for f in &m.stack {
        w.u32(f.id);
        w.u64(f.entry);
        w.u64(f.child);
        w.u64(f.interval);
        w.bool(f.recursive);
    }
    w.into_vec()
}

fn grow<T: Clone + Default>(v: &mut Vec<T>, i: usize) {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
}

// ---------------------------------------------------------------------------
// Profile: probes (start/stop), batch folds (record_repeat), scheduler
// intervals, atomics, resets
// ---------------------------------------------------------------------------

const IDS: u32 = 40;

#[derive(Debug, Clone)]
enum POp {
    Start {
        id: u32,
        dwell: u64,
    },
    Stop {
        dwell: u64,
    },
    RecordRepeat {
        id: u32,
        incl: u64,
        extra: u64,
        n: u64,
    },
    AddInterval {
        id: u32,
        d: u64,
    },
    Atomic {
        id: u32,
        v: u64,
    },
    Reset,
}

fn arb_pop() -> impl Strategy<Value = POp> {
    prop_oneof![
        (0..IDS, 1..500u64).prop_map(|(id, dwell)| POp::Start { id, dwell }),
        (1..500u64).prop_map(|dwell| POp::Stop { dwell }),
        (0..IDS, 1..1000u64, 0..300u64, 1..5u64)
            .prop_map(|(id, incl, extra, n)| POp::RecordRepeat { id, incl, extra, n }),
        (0..IDS, 1..800u64).prop_map(|(id, d)| POp::AddInterval { id, d }),
        (0..IDS, 0..10_000u64).prop_map(|(id, v)| POp::Atomic { id, v }),
        Just(POp::Reset),
    ]
}

/// Mirror of one live activation frame, kept so the model can reproduce the
/// stop-time inclusive/exclusive arithmetic and the stack's encoding.
struct Frame {
    id: u32,
    entry: u64,
    child: u64,
    interval: u64,
    recursive: bool,
}

proptest! {
    #[test]
    fn profile_arena_matches_dense_model(ops in proptest::collection::vec(arb_pop(), 1..120)) {
        let mut p = Profile::new();
        // The dense model: stats/active vectors up to the touched watermark,
        // exactly the old eager layout.
        let mut entries: Vec<EntryExitStats> = Vec::new();
        let mut active: Vec<u32> = Vec::new();
        let mut atomics: Vec<AtomicStats> = Vec::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut now: u64 = 1;

        for op in &ops {
            match *op {
                POp::Start { id, dwell } => {
                    if stack.len() >= 6 {
                        continue;
                    }
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    let recursive = active[id as usize] > 0;
                    active[id as usize] += 1;
                    p.start(EventId(id), now);
                    stack.push(Frame { id, entry: now, child: 0, interval: 0, recursive });
                    now += dwell;
                }
                POp::Stop { dwell } => {
                    let Some(f) = stack.pop() else { continue };
                    p.stop(EventId(f.id), now).unwrap();
                    active[f.id as usize] -= 1;
                    let incl = now - f.entry;
                    let excl = incl.saturating_sub(f.child);
                    model_record(&mut entries[f.id as usize], incl, excl, !f.recursive);
                    if let Some(parent) = stack.last_mut() {
                        parent.child += incl;
                    }
                    now += dwell;
                }
                POp::RecordRepeat { id, incl, extra, n } => {
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    if active[id as usize] > 0 {
                        continue; // folding an active event is a contract violation
                    }
                    let excl = incl.saturating_sub(extra);
                    p.record_repeat(EventId(id), incl, excl, n);
                    let e = &mut entries[id as usize];
                    let first = e.count == 0;
                    e.count += n;
                    e.excl_ns += excl * n;
                    e.incl_ns += incl * n;
                    if first || incl < e.min_incl_ns {
                        e.min_incl_ns = incl;
                    }
                    if incl > e.max_incl_ns {
                        e.max_incl_ns = incl;
                    }
                }
                POp::AddInterval { id, d } => {
                    grow(&mut entries, id as usize);
                    grow(&mut active, id as usize);
                    p.add_interval(EventId(id), d);
                    model_record(&mut entries[id as usize], d, d, true);
                    if let Some(top) = stack.last_mut() {
                        top.child += d;
                    }
                    for f in &mut stack {
                        f.interval += d;
                    }
                }
                POp::Atomic { id, v } => {
                    grow(&mut atomics, id as usize);
                    p.atomic(EventId(id), v);
                    model_atomic(&mut atomics[id as usize], v);
                }
                POp::Reset => {
                    p.reset();
                    for e in &mut entries {
                        *e = EntryExitStats::default();
                    }
                    for a in &mut atomics {
                        *a = AtomicStats::default();
                    }
                    for f in &mut stack {
                        f.child = 0;
                        f.interval = 0;
                    }
                }
            }
        }

        let model = DenseProfile { entries, active, atomics, stack };
        check_profile(&p, &model)?;

        // The oracle bytes decode to a table that passes the same checks
        // (its encoding included), even though in-memory slot allocation
        // order and zeroed slots a reset leaves behind may differ.
        let d = Profile::decode_wire(&mut Reader::new(&profile_oracle(&model))).unwrap();
        check_profile(&d, &model)?;
    }
}

/// Every observable surface of `p` against the dense model.
fn check_profile(p: &Profile, model: &DenseProfile) -> Result<(), TestCaseError> {
    // Point reads: fired ids match the model, never-fired ids (and ids
    // past the watermark) read as defaults.
    for i in 0..IDS + 8 {
        let want = model.entries.get(i as usize).copied().unwrap_or_default();
        prop_assert_eq!(p.entry_stats(EventId(i)), want);
        let want = model.atomics.get(i as usize).copied().unwrap_or_default();
        prop_assert_eq!(p.atomic_stats(EventId(i)), want);
    }

    // Iteration: exactly the model's count>0 rows, ascending id.
    let got: Vec<(u32, EntryExitStats)> = p.iter_entries().map(|(id, s)| (id.0, *s)).collect();
    let want: Vec<(u32, EntryExitStats)> = model
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.count > 0)
        .map(|(i, e)| (i as u32, *e))
        .collect();
    prop_assert_eq!(got, want);
    let got: Vec<(u32, AtomicStats)> = p.iter_atomics().map(|(id, s)| (id.0, *s)).collect();
    let want: Vec<(u32, AtomicStats)> = model
        .atomics
        .iter()
        .enumerate()
        .filter(|(_, a)| a.count > 0)
        .map(|(i, a)| (i as u32, *a))
        .collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(
        p.total_excl_ns(),
        model.entries.iter().map(|e| e.excl_ns).sum::<u64>()
    );

    // Encoding parity with the oracle built from the dense model.
    let mut w = Writer::new();
    p.encode_wire(&mut w);
    prop_assert_eq!(w.into_vec(), profile_oracle(model));
    Ok(())
}

// ---------------------------------------------------------------------------
// MergedTable: add_n folds, bare cell touches (count-0 cells must stay out of
// every observation, the encoding included), clears
// ---------------------------------------------------------------------------

const USERS: u32 = 10;
const KERNELS: u32 = 24;

#[derive(Debug, Clone)]
enum MOp {
    Add {
        user: Option<u32>,
        kernel: u32,
        ns: u64,
        n: u64,
    },
    Touch {
        user: Option<u32>,
        kernel: u32,
    },
    Clear,
}

fn arb_user() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (0..USERS).prop_map(Some)]
}

fn arb_mop() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (arb_user(), 0..KERNELS, 1..1000u64, 1..4u64).prop_map(|(user, kernel, ns, n)| MOp::Add {
            user,
            kernel,
            ns,
            n
        }),
        (arb_user(), 0..KERNELS).prop_map(|(user, kernel)| MOp::Touch { user, kernel }),
        Just(MOp::Clear),
    ]
}

fn mkey(user: Option<u32>, kernel: u32) -> (Option<EventId>, EventId) {
    (user.map(EventId), EventId(kernel))
}

fn mslot(user: Option<u32>) -> usize {
    user.map_or(0, |u| u as usize + 1)
}

/// The canonical merged encoding, built from the dense rows: each row with a
/// non-default cell as `(slot, cell count)` in ascending slot order, followed
/// by its non-default cells as `(column, count, ns)` in column order.
fn merged_oracle(rows: &[Vec<MergedStats>]) -> Vec<u8> {
    let live = |row: &Vec<MergedStats>| -> Vec<(usize, MergedStats)> {
        row.iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| *c != MergedStats::default())
            .collect()
    };
    let mut w = Writer::new();
    w.u32(rows.iter().filter(|r| !live(r).is_empty()).count() as u32);
    for (slot, row) in rows.iter().enumerate() {
        let cells = live(row);
        if cells.is_empty() {
            continue;
        }
        w.u32(slot as u32);
        w.u32(cells.len() as u32);
        for (col, c) in cells {
            w.u32(col as u32);
            w.u64(c.count);
            w.u64(c.ns);
        }
    }
    w.into_vec()
}

proptest! {
    #[test]
    fn merged_arena_matches_dense_model(ops in proptest::collection::vec(arb_mop(), 1..100)) {
        let mut t = MergedTable::default();
        // The dense model: the old Vec<Vec<MergedStats>>, each row dense up
        // to the largest kernel column it ever saw.
        let mut rows: Vec<Vec<MergedStats>> = Vec::new();

        for op in &ops {
            match *op {
                MOp::Add { user, kernel, ns, n } => {
                    t.add_n(mkey(user, kernel), ns, n);
                    grow(&mut rows, mslot(user));
                    grow(&mut rows[mslot(user)], kernel as usize);
                    let c = &mut rows[mslot(user)][kernel as usize];
                    c.count += n;
                    c.ns += ns * n;
                }
                MOp::Touch { user, kernel } => {
                    t.cell_mut(mkey(user, kernel));
                    grow(&mut rows, mslot(user));
                    grow(&mut rows[mslot(user)], kernel as usize);
                }
                MOp::Clear => {
                    t.clear();
                    rows.clear();
                }
            }
        }

        check_merged(&t, &rows)?;

        // The oracle bytes decode to a table that passes the same checks.
        let d = MergedTable::decode_wire(&mut Reader::new(&merged_oracle(&rows))).unwrap();
        check_merged(&d, &rows)?;
    }
}

/// Every observable surface of `t` against the dense model.
fn check_merged(t: &MergedTable, rows: &[Vec<MergedStats>]) -> Result<(), TestCaseError> {
    // Point reads across the whole grid (touched-but-zero cells and
    // never-touched cells both read back as absent).
    for user in std::iter::once(None).chain((0..USERS).map(Some)) {
        for kernel in 0..KERNELS {
            let want = rows
                .get(mslot(user))
                .and_then(|r| r.get(kernel as usize))
                .filter(|c| c.count > 0)
                .copied();
            prop_assert_eq!(t.get(mkey(user, kernel)).copied(), want);
        }
    }

    // Iteration: row-major over the dense model, recorded cells only.
    let got: Vec<(usize, u32, MergedStats)> = t
        .iter()
        .map(|((u, k), s)| (mslot(u.map(|e| e.0)), k.0, *s))
        .collect();
    let want: Vec<(usize, u32, MergedStats)> = rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, c)| c.count > 0)
                .map(move |(k, c)| (r, k as u32, *c))
        })
        .collect();
    prop_assert_eq!(got, want);

    // Encoding parity with the oracle built from the dense rows.
    let mut w = Writer::new();
    t.encode_wire(&mut w);
    prop_assert_eq!(w.into_vec(), merged_oracle(rows));
    Ok(())
}

// ---------------------------------------------------------------------------
// WallTable: sparse entries vs a dense Vec<Option<Ns>> — presence must keep
// distinguishing "never recorded" from an accumulated zero
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WOp {
    Add { user: Option<u32>, ns: u64 },
    Clear,
}

fn arb_wop() -> impl Strategy<Value = WOp> {
    prop_oneof![
        (arb_user(), 0..800u64).prop_map(|(user, ns)| WOp::Add { user, ns }),
        Just(WOp::Clear),
    ]
}

proptest! {
    #[test]
    fn wall_arena_matches_dense_model(ops in proptest::collection::vec(arb_wop(), 1..80)) {
        let mut wt = WallTable::default();
        // The dense model: the old Vec<Option<Ns>> itself.
        let mut model: Vec<Option<u64>> = Vec::new();

        for op in &ops {
            match *op {
                WOp::Add { user, ns } => {
                    wt.add(user.map(EventId), ns);
                    grow(&mut model, mslot(user));
                    let c = model[mslot(user)].get_or_insert(0);
                    *c += ns;
                }
                WOp::Clear => {
                    wt.clear();
                    model.clear();
                }
            }
        }

        check_wall(&wt, &model)?;

        // The oracle bytes decode to a table that passes the same checks.
        let d = WallTable::decode_wire(&mut Reader::new(&wall_oracle(&model))).unwrap();
        check_wall(&d, &model)?;
    }
}

/// The canonical wall encoding, built from the dense vector: every present
/// slot (an accumulated zero included) as `(slot, ns)` in ascending order.
fn wall_oracle(model: &[Option<u64>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(model.iter().flatten().count() as u32);
    for (slot, ns) in model.iter().enumerate() {
        if let Some(ns) = ns {
            w.u32(slot as u32);
            w.u64(*ns);
        }
    }
    w.into_vec()
}

/// Every observable surface of `wt` against the dense model.
fn check_wall(wt: &WallTable, model: &[Option<u64>]) -> Result<(), TestCaseError> {
    // Point reads, including a zero-ns accumulation staying Some.
    for user in std::iter::once(None).chain((0..USERS).map(Some)) {
        let want = model.get(mslot(user)).copied().flatten();
        prop_assert_eq!(wt.get(user.map(EventId)), want);
    }

    // Iteration in dense slot order.
    let got: Vec<(usize, u64)> = wt
        .iter()
        .map(|(u, ns)| (mslot(u.map(|e| e.0)), ns))
        .collect();
    let want: Vec<(usize, u64)> = model
        .iter()
        .enumerate()
        .filter_map(|(s, o)| o.map(|ns| (s, ns)))
        .collect();
    prop_assert_eq!(got, want);

    // Encoding parity with the oracle built from the dense vector.
    let mut w = Writer::new();
    wt.encode_wire(&mut w);
    prop_assert_eq!(w.into_vec(), wall_oracle(model));
    Ok(())
}
