//! A concrete interpreter for checked mini-C programs.
//!
//! Besides producing output and an exit code, the interpreter traces the
//! concrete location touched by every memory read and write, keyed by the
//! AST expression performing the access. The `oracle` module compares
//! those traces against the points-to analyses: every runtime dereference
//! target must be covered by the analysis' prediction at the matching VDG
//! node — an automated version of the soundness the paper argues
//! informally.
//!
//! # Cost model
//!
//! A run is a budget of evaluation steps ([`Config::max_steps`]). An
//! edited program that stops terminating would spend all of it, ten
//! million steps, so a sequential run ends a *stuck* loop (one that
//! provably never exits and only repeats its trace facts, see the
//! `stuck` module) after its second completed iteration, with exactly
//! the record the rest of the budget would have produced. What remains
//! costs whatever one step costs times the steps run, so a step
//! allocates nothing and hashes only small integers:
//!
//! - Expressions are matched by reference into the program; nothing of
//!   the AST is cloned.
//! - A [`Loc`]'s path holds up to four steps inline ([`crate::memory::CPath`]),
//!   so reading a pointer, indexing and pointer arithmetic copy a few
//!   words instead of allocating.
//! - Each run interns the abstract locations it touches into dense ids
//!   (a per-object root plus one `(parent, step)` lookup per step). The
//!   trace and the last-writer table record ids; the public
//!   [`Trace`] maps of [`AbsLoc`]s are built once, when the run stops.
//! - Every map is an `alias::fxhash` map, not SipHash.
//!
//! A threaded run adds one OS thread per child slot, started at the
//! slot's first `spawn` and reused after each `join`, so a program that
//! spawns two threads pays for two, not for the pool's eight. It never
//! takes the stuck-loop shortcut: another thread may write the guard,
//! so a threaded spin-wait runs step by step until it is released or
//! the budget runs out.
//!
//! Per run, classifying the loops is one walk over the program, and
//! each loop entry costs one hash lookup.

use crate::memory::{AbsLoc, AbsTable, CStep, Loc, Memory, Origin, Value};
use crate::stuck::StuckLoops;
use alias::fxhash::{HashMap, HashSet};
use cfront::ast::*;
use cfront::types::{TypeKind, TypeTable};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::thread::Scope;

/// Interpreter limits and inputs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum evaluation steps before aborting.
    pub max_steps: u64,
    /// Bytes served to `getchar()`.
    pub input: Vec<u8>,
    /// Thread-interleaving seed for programs that `spawn`: 0 selects the
    /// deterministic round-robin schedule, any other value drives seeded
    /// preemption (random quanta and successor choice). Sequential
    /// programs ignore it entirely.
    pub sched_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 10_000_000,
            input: Vec::new(),
            sched_seed: 0,
        }
    }
}

/// Where the interpreter stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A dynamic error (null deref, division by zero, bad pointer math).
    Dynamic(String),
    /// The step budget ran out: the program ran `max_steps` steps
    /// without stopping, or a sequential run entered a loop proved never
    /// to exit (the record is the same either way: `max_steps + 1`
    /// steps and the trace the whole budget would have left).
    StepLimit,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Dynamic(m) => write!(f, "runtime error: {m}"),
            RunError::StepLimit => write!(f, "interpreter step limit exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

/// The class of memory-safety fault an abnormal run tripped on. The
/// checker harness matches these against static diagnostics to label
/// them true or false positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An access through a pointer into a deallocated heap object.
    UseAfterFree,
    /// `free` of an already-freed heap object.
    DoubleFree,
    /// `free` of something that is not a live heap allocation.
    InvalidFree,
    /// Dereference of a null pointer.
    NullDeref,
    /// Dereference of an uninitialized pointer.
    UninitDeref,
}

/// A classified runtime fault with the expression that tripped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInfo {
    /// What went wrong.
    pub kind: FaultKind,
    /// The AST expression performing the faulting access or `free`.
    pub site: ExprId,
    /// Human-readable description (mirrors the [`RunError::Dynamic`] text).
    pub message: String,
}

/// Memory accesses observed at runtime, abstracted and keyed by the AST
/// expression that performed them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Abstract locations read, per reading expression.
    pub reads: HashMap<ExprId, HashSet<AbsLoc>>,
    /// Abstract locations written, per writing expression.
    pub writes: HashMap<ExprId, HashSet<AbsLoc>>,
    /// Abstract locations deallocated, per `free(...)` call expression.
    /// Recorded before the double-free check, so the key set is exactly
    /// the executed free sites.
    pub frees: HashMap<ExprId, HashSet<AbsLoc>>,
    /// Expressions observed making a pointer to a current-frame local
    /// escape: `return` value expressions whose value points into the
    /// returning frame, and writes that store such a pointer outside
    /// the frame.
    pub local_escapes: HashSet<ExprId>,
    /// Write sites whose stored value was later read (order-aware
    /// runtime def/use evidence; the dead-store labeler's ground truth).
    pub observed_writes: HashSet<ExprId>,
    /// Read sites that observed a location no traced write had defined
    /// yet — runtime evidence for the uninitialized-read checker.
    pub uninit_reads: HashSet<ExprId>,
    /// Value expressions of executed `return` statements, whether or not
    /// the value escaped (reachability evidence for return-site
    /// diagnostics).
    pub returns: HashSet<ExprId>,
    /// Data races observed under this run's thread schedule: normalized
    /// `(min, max)` pairs of access-site expressions that touched the
    /// same concrete location from concurrent threads, at least one of
    /// them writing. Always empty for sequential programs.
    pub races: BTreeSet<(ExprId, ExprId)>,
}

/// Result of a complete run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `main`'s return value (or the `exit()` argument).
    pub exit: i64,
    /// Captured `printf`/`puts`/`putchar` output.
    pub stdout: String,
    /// Evaluation steps consumed.
    pub steps: u64,
    /// The memory-access trace for the soundness oracle.
    pub trace: Trace,
}

/// Runs `main()` of a checked program.
///
/// # Errors
///
/// Returns [`RunError`] for dynamic errors or step-budget exhaustion.
pub fn run(prog: &Program, cfg: &Config) -> Result<Outcome, RunError> {
    run_traced(prog, cfg).into_outcome()
}

/// Result of a run that keeps the trace (and any classified fault) even
/// when the program stops on a dynamic error — what the checker harness
/// needs to label diagnostics against the runtime ground truth.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `main`'s return value, if the program terminated normally.
    pub exit: Option<i64>,
    /// Captured `printf`/`puts`/`putchar` output.
    pub stdout: String,
    /// Evaluation steps consumed.
    pub steps: u64,
    /// How the run stopped abnormally, if it did.
    pub error: Option<RunError>,
    /// The first classified memory-safety fault, if any.
    pub fault: Option<FaultInfo>,
    /// The memory-access trace up to the stop point.
    pub trace: Trace,
}

impl RunRecord {
    /// The record as [`run`] reports it: the outcome of a normal stop,
    /// or the error of an abnormal one (dropping the trace and fault).
    ///
    /// # Errors
    ///
    /// Returns the recorded [`RunError`], if the run stopped on one.
    pub fn into_outcome(self) -> Result<Outcome, RunError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Outcome {
            exit: self
                .exit
                .expect("a run that stopped without error has an exit value"),
            stdout: self.stdout,
            steps: self.steps,
            trace: self.trace,
        })
    }
}

/// Runs `main()` like [`run`] but never discards the trace: a faulting
/// program yields everything it touched before the fault plus the fault
/// classification itself.
pub fn run_traced(prog: &Program, cfg: &Config) -> RunRecord {
    let (mut w, r) = run_raw(prog, cfg);
    let (exit, error) = match r {
        Ok(exit) | Err(StopSig::Exit(exit)) => (Some(exit), None),
        Err(StopSig::Error(m)) => (None, Some(RunError::Dynamic(m))),
        Err(StopSig::StepLimit) => (None, Some(RunError::StepLimit)),
    };
    RunRecord {
        exit,
        stdout: std::mem::take(&mut w.out),
        steps: w.steps,
        error,
        fault: w.fault.take(),
        trace: w.take_trace(),
    }
}

/// Union of race observations across several bounded interleavings.
#[derive(Debug, Clone, Default)]
pub struct RaceObs {
    /// Normalized `(min, max)` racing site pairs observed under any
    /// explored schedule.
    pub pairs: BTreeSet<(ExprId, ExprId)>,
    /// Access and free sites that executed under at least one schedule
    /// (reachability evidence for diagnostic labeling).
    pub executed: BTreeSet<ExprId>,
    /// How many schedules ran.
    pub schedules: usize,
}

/// Runs `prog` under up to `schedules` distinct thread interleavings —
/// the deterministic round-robin schedule first, then seeded preemption
/// — and unions the observed data races and executed sites. Sequential
/// programs get a single run.
pub fn explore_races(prog: &Program, cfg: &Config, schedules: usize) -> RaceObs {
    explore_races_recorded(prog, cfg, schedules).1
}

/// [`explore_races`], also handing back schedule 0's [`RunRecord`].
/// Schedule 0 is the round-robin schedule (`sched_seed = 0`), so its
/// record is exactly what [`run_traced`] returns for `cfg` with
/// `sched_seed` 0: a caller that needs both pays for that run once.
pub fn explore_races_recorded(
    prog: &Program,
    cfg: &Config,
    schedules: usize,
) -> (RunRecord, RaceObs) {
    let n = if prog.uses_threads() {
        schedules.max(1)
    } else {
        1
    };
    let mut obs = RaceObs::default();
    let mut first = None;
    for k in 0..n {
        let mut c = cfg.clone();
        c.sched_seed = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rec = run_traced(prog, &c);
        obs.pairs.extend(rec.trace.races.iter().copied());
        obs.executed.extend(rec.trace.reads.keys().copied());
        obs.executed.extend(rec.trace.writes.keys().copied());
        obs.executed.extend(rec.trace.frees.keys().copied());
        obs.schedules += 1;
        first.get_or_insert(rec);
    }
    (first.expect("at least one schedule runs"), obs)
}

enum Stop {
    Error(String),
    Exit(i64),
    StepLimit,
}

impl From<String> for Stop {
    fn from(m: String) -> Stop {
        Stop::Error(m)
    }
}

/// A cloneable program-wide stop reason, set once in the shared
/// [`World`] by whichever thread stops first and propagated to every
/// other thread at its next scheduling point.
#[derive(Debug, Clone)]
enum StopSig {
    Error(String),
    Exit(i64),
    StepLimit,
}

impl From<Stop> for StopSig {
    fn from(s: Stop) -> StopSig {
        match s {
            Stop::Error(m) => StopSig::Error(m),
            Stop::Exit(v) => StopSig::Exit(v),
            Stop::StepLimit => StopSig::StepLimit,
        }
    }
}

impl From<StopSig> for Stop {
    fn from(s: StopSig) -> Stop {
        match s {
            StopSig::Error(m) => Stop::Error(m),
            StopSig::Exit(v) => Stop::Exit(v),
            StopSig::StepLimit => Stop::StepLimit,
        }
    }
}

type R<T> = Result<T, Stop>;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

struct Frame {
    locals: Vec<u32>,
}

/// How many child threads can be live at once. Spawning a ninth before a
/// `join` reaps the pool is a dynamic error.
const MAX_CHILDREN: usize = 8;

/// Steps between voluntary preemptions under the round-robin schedule.
const RR_QUANTUM: u64 = 7;

/// One child-thread slot of the scheduler.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    live: bool,
    finished: bool,
    /// Index into [`World::instances`] of the occupying spawn instance.
    inst: u32,
}

/// A spawn instance's interval on the logical spawn/join clock.
#[derive(Debug, Clone, Copy)]
struct Inst {
    spawn_seq: u64,
    join_seq: Option<u64>,
}

/// One recorded access for race detection.
#[derive(Debug, Clone, Copy)]
struct Access {
    inst: u32,
    /// Logical clock value ([`World::seq`]) at access time.
    at: u64,
    site: ExprId,
}

/// Access history of one concrete location.
#[derive(Debug, Clone, Default)]
struct LocAccesses {
    last_write: Option<Access>,
    reads: Vec<Access>,
}

/// All interpreter state shared between threads. Exactly one thread owns
/// the `World` at a time (lockstep execution): it runs until it yields,
/// then hands the whole value to the next thread through the [`Baton`].
/// Sequential programs keep it in their single [`Exec`] with zero
/// synchronization.
struct World {
    mem: Memory,
    globals: Vec<u32>,
    trace: Trace,
    out: String,
    steps: u64,
    input_pos: usize,
    rng: u64,
    fault: Option<FaultInfo>,
    /// This run's abstract locations; the id sets below index it.
    abs: AbsTable,
    /// Traced `(site, location id)` reads, writes and frees, turned into
    /// [`Trace::reads`], [`Trace::writes`] and [`Trace::frees`] when the
    /// run stops.
    read_ids: HashSet<(ExprId, u32)>,
    write_ids: HashSet<(ExprId, u32)>,
    free_ids: HashSet<(ExprId, u32)>,
    /// Last traced write site per location id, for runtime def/use
    /// ([`Trace::observed_writes`] / [`Trace::uninit_reads`]).
    last_writer: Vec<Option<ExprId>>,
    /// Whether the program can spawn at all; `false` keeps every
    /// threading hook inert.
    threaded: bool,
    /// First stop reason program-wide; later threads observe it at their
    /// next tick and unwind.
    stop: Option<StopSig>,
    sched_seed: u64,
    /// Xorshift state for seeded preemption.
    srng: u64,
    /// Steps left before the current thread must offer a yield.
    quantum_left: u64,
    /// Main is parked at a `join` barrier.
    main_blocked: bool,
    slots: Vec<SlotState>,
    /// Logical clock, bumped at each spawn and join barrier.
    seq: u64,
    /// Spawn instances; index 0 is main.
    instances: Vec<Inst>,
    /// Per-concrete-location access history for race detection.
    access: HashMap<Loc, LocAccesses>,
}

impl Default for World {
    fn default() -> Self {
        World {
            mem: Memory::new(),
            globals: Vec::new(),
            trace: Trace::default(),
            out: String::new(),
            steps: 0,
            input_pos: 0,
            rng: 0x2545F4914F6CDD1D,
            fault: None,
            abs: AbsTable::default(),
            read_ids: HashSet::default(),
            write_ids: HashSet::default(),
            free_ids: HashSet::default(),
            last_writer: Vec::new(),
            threaded: false,
            stop: None,
            sched_seed: 0,
            srng: 1,
            quantum_left: RR_QUANTUM,
            main_blocked: false,
            slots: Vec::new(),
            seq: 0,
            instances: Vec::new(),
            access: HashMap::default(),
        }
    }
}

impl World {
    fn new(cfg: &Config, threaded: bool) -> Self {
        World {
            threaded,
            sched_seed: cfg.sched_seed,
            srng: cfg.sched_seed | 1,
            slots: vec![SlotState::default(); MAX_CHILDREN],
            instances: vec![Inst {
                spawn_seq: 0,
                join_seq: None,
            }],
            ..World::default()
        }
    }

    /// The run's trace, with each traced `(site, location id)` set
    /// grouped into its per-site map of abstract locations.
    fn take_trace(&mut self) -> Trace {
        let mut t = std::mem::take(&mut self.trace);
        for (map, ids) in [
            (&mut t.reads, &self.read_ids),
            (&mut t.writes, &self.write_ids),
            (&mut t.frees, &self.free_ids),
        ] {
            for &(site, id) in ids {
                map.entry(site)
                    .or_default()
                    .insert(self.abs.get(id).clone());
            }
        }
        t
    }

    /// The location id of `loc`, interned on first sight.
    fn loc_id(&mut self, loc: &Loc, types: &TypeTable) -> u32 {
        self.abs.intern(&self.mem, loc, types)
    }

    fn next_srng(&mut self) -> u64 {
        let mut x = self.srng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.srng = x;
        x
    }

    /// Picks the thread to run next among main (unless blocked) and the
    /// unfinished live children, resetting the quantum: round-robin with
    /// a fixed quantum for seed 0, seeded choice and quantum otherwise.
    /// Falls back to main when nothing is runnable (the `join` barrier
    /// and stop-propagation cases).
    fn pick_next(&mut self, me: usize, exclude_me: bool) -> usize {
        let mut cands: Vec<usize> = Vec::with_capacity(MAX_CHILDREN + 1);
        if !self.main_blocked {
            cands.push(0);
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.live && !s.finished {
                cands.push(i + 1);
            }
        }
        if exclude_me {
            cands.retain(|&c| c != me);
        }
        if cands.is_empty() {
            return 0;
        }
        if self.sched_seed == 0 {
            self.quantum_left = RR_QUANTUM;
            *cands.iter().find(|&&c| c > me).unwrap_or(&cands[0])
        } else {
            let r = self.next_srng();
            self.quantum_left = 1 + (r >> 17) % 12;
            cands[(r % cands.len() as u64) as usize]
        }
    }
}

/// A queued child-thread body: `func(args)` running as spawn instance
/// `inst`.
struct Task {
    func: u32,
    args: Vec<Value>,
    inst: u32,
}

#[derive(Default)]
struct BatonState {
    /// The world, present while parked or in transit between threads.
    world: Option<World>,
    /// Which thread should take it next.
    current: usize,
    shutdown: bool,
    /// Pending task per child thread id (index 0 unused).
    tasks: Vec<Option<Task>>,
    /// Which child thread ids have a worker running (index 0 unused).
    /// A slot's worker starts at its first `spawn`, so a program that
    /// never fills the pool never pays for the idle threads.
    started: Vec<bool>,
}

/// The lockstep hand-off point: a mailbox holding the [`World`] while no
/// thread runs, plus task dispatch and shutdown for the worker pool.
struct Baton {
    state: Mutex<BatonState>,
    cv: Condvar,
}

impl Baton {
    fn new(children: usize) -> Self {
        Baton {
            state: Mutex::new(BatonState {
                tasks: (0..=children).map(|_| None).collect(),
                started: vec![false; children + 1],
                ..BatonState::default()
            }),
            cv: Condvar::new(),
        }
    }

    fn pass(&self, w: World, next: usize) {
        let mut st = self.state.lock().unwrap();
        st.world = Some(w);
        st.current = next;
        self.cv.notify_all();
    }

    /// Blocks until the world is handed to `me`; `None` on shutdown.
    fn take(&self, me: usize) -> Option<World> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if st.current == me && st.world.is_some() {
                return st.world.take();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Queues `t` for child thread `thread`; returns whether that
    /// thread's worker still has to be started.
    fn deposit(&self, thread: usize, t: Task) -> bool {
        let mut st = self.state.lock().unwrap();
        st.tasks[thread] = Some(t);
        let start = !std::mem::replace(&mut st.started[thread], true);
        self.cv.notify_all();
        start
    }

    /// Blocks until a task is queued for `me`; `None` on shutdown.
    fn wait_task(&self, me: usize) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(t) = st.tasks[me].take() {
                return Some(t);
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn shutdown_all(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        self.cv.notify_all();
    }
}

fn fold(r: R<i64>) -> Result<i64, StopSig> {
    match r {
        Ok(v) | Err(Stop::Exit(v)) => Ok(v),
        Err(Stop::Error(m)) => Err(StopSig::Error(m)),
        Err(Stop::StepLimit) => Err(StopSig::StepLimit),
    }
}

/// Stack size for interpreter threads. Each interpreted frame consumes
/// several host frames (large ones in unoptimized builds), so the
/// 128-frame depth limit needs far more room than a default test-thread
/// stack; the reservation is virtual and committed lazily.
const INTERP_STACK: usize = 16 * 1024 * 1024;

/// Runs the program to completion and returns the final [`World`] plus
/// the folded outcome. The interpreter always runs on a dedicated
/// thread with a known-large stack; threaded programs additionally get
/// a scoped worker pool driven through the [`Baton`], one worker per
/// child slot, started at the slot's first `spawn`.
fn run_raw(prog: &Program, cfg: &Config) -> (World, Result<i64, StopSig>) {
    let threaded = prog.uses_threads();
    let world = World::new(cfg, threaded);
    let baton = Baton::new(MAX_CHILDREN);
    std::thread::scope(|s| {
        let bref = &baton;
        let main = std::thread::Builder::new()
            .stack_size(INTERP_STACK)
            .spawn_scoped(s, move || {
                let mut x = Exec {
                    prog,
                    cfg,
                    me: 0,
                    instance: 0,
                    pool: threaded.then_some(Pool {
                        baton: bref,
                        scope: s,
                    }),
                    holds: true,
                    w: world,
                    frames: Vec::new(),
                    stuck: if threaded {
                        StuckLoops::default()
                    } else {
                        StuckLoops::classify(prog)
                    },
                };
                let r = x.run_program();
                let sig = fold(r);
                // Lockstep hand-off means main owns the world again once
                // it unwinds. Record why the program stopped, then
                // release the still-parked workers so the scope closes.
                match &sig {
                    Ok(v) => {
                        x.w.stop.get_or_insert(StopSig::Exit(*v));
                    }
                    Err(e) => {
                        x.w.stop.get_or_insert(e.clone());
                    }
                }
                bref.shutdown_all();
                (std::mem::take(&mut x.w), sig)
            })
            .expect("spawn interpreter main thread");
        main.join().expect("interpreter main thread panicked")
    })
}

/// Body of one pooled worker thread: wait for a task, wait for the
/// baton, interpret the spawned call, then mark the slot finished and
/// pass the world on. Exits on shutdown.
fn worker_loop<'s, 'e>(prog: &'s Program, cfg: &'s Config, pool: Pool<'s, 'e>, me: usize) {
    while let Some(task) = pool.baton.wait_task(me) {
        let mut x = Exec {
            prog,
            cfg,
            me,
            instance: task.inst,
            pool: Some(pool),
            holds: false,
            w: World::default(),
            frames: Vec::new(),
            stuck: StuckLoops::default(),
        };
        if x.take_world().is_err() {
            return;
        }
        let r = x.call_user(task.func, task.args);
        if !x.holds {
            // Unwound through a failed take (shutdown mid-wait): there
            // is no world to hand back.
            return;
        }
        if let Err(stop) = r {
            let sig = StopSig::from(stop);
            x.w.stop.get_or_insert(sig);
        }
        x.w.slots[me - 1].finished = true;
        let next = x.w.pick_next(me, true);
        x.pass_to(next);
    }
}

/// What a threaded run's interpreters share: the hand-off point, and
/// the thread scope that a slot's worker is started in.
#[derive(Clone, Copy)]
struct Pool<'s, 'e> {
    baton: &'s Baton,
    scope: &'s Scope<'s, 'e>,
}

struct Exec<'s, 'e> {
    prog: &'s Program,
    cfg: &'s Config,
    /// Thread id: 0 is main, `i + 1` runs child slot `i`.
    me: usize,
    /// Spawn-instance id for race ordering (0 = main).
    instance: u32,
    /// The worker pool; `None` for sequential runs.
    pool: Option<Pool<'s, 'e>>,
    /// Whether this thread currently owns `w` (the execution token).
    /// While parked, `w` is a dummy default value.
    holds: bool,
    w: World,
    frames: Vec<Frame>,
    /// The program's stuck loops; empty for threaded runs.
    stuck: StuckLoops,
}

impl<'s, 'e> Exec<'s, 'e> {
    /// Records the first memory-safety fault and returns the matching
    /// dynamic-error stop.
    fn fault(&mut self, kind: FaultKind, site: ExprId, msg: &str) -> Stop {
        if self.w.fault.is_none() {
            self.w.fault = Some(FaultInfo {
                kind,
                site,
                message: msg.to_string(),
            });
        }
        Stop::Error(msg.to_string())
    }

    fn types(&self) -> &TypeTable {
        &self.prog.types
    }

    /// The lap counter a loop statement starts with: `Some(0)` for a
    /// stuck loop (see `crate::stuck`), `None` otherwise.
    fn laps(&self, s: &Stmt) -> Option<u8> {
        self.stuck.get(s).map(|_| 0)
    }

    /// Ends one completed iteration of loop `s`. A stuck loop whose
    /// accumulators hold integers after its first and second iterations
    /// never exits and repeats the second iteration's trace facts, so
    /// the rest of the step budget is spent at once: the tick fails as
    /// the slow path's last one would.
    fn lap(&mut self, s: &Stmt, laps: &mut Option<u8>) -> R<()> {
        let Some(n) = laps else {
            return Ok(());
        };
        let accs = self.stuck.get(s).unwrap_or_default();
        let locals = &self.frames.last().expect("active frame").locals;
        let ints = accs.iter().all(|a| {
            let loc = Loc::of(locals[a.0 as usize]);
            matches!(self.w.mem.read(&loc, &self.prog.types), Ok(Value::Int(_)))
        });
        if !ints {
            *laps = None;
            return Ok(());
        }
        *n += 1;
        if *n == 2 {
            self.w.steps = self.cfg.max_steps;
            return self.tick();
        }
        Ok(())
    }

    fn tick(&mut self) -> R<()> {
        self.w.steps += 1;
        if self.w.steps > self.cfg.max_steps {
            if self.w.threaded {
                self.w.stop.get_or_insert(StopSig::StepLimit);
            }
            return Err(Stop::StepLimit);
        }
        if self.w.threaded {
            if let Some(s) = &self.w.stop {
                return Err(s.clone().into());
            }
            if self.w.quantum_left == 0 {
                self.yield_baton()?;
            } else {
                self.w.quantum_left -= 1;
            }
        }
        Ok(())
    }

    // ----- thread scheduling ----------------------------------------------

    /// Hands the world to `next` and parks until it comes back.
    fn pass_to(&mut self, next: usize) {
        let w = std::mem::take(&mut self.w);
        self.holds = false;
        self.pool.expect("threaded run").baton.pass(w, next);
    }

    fn take_world(&mut self) -> R<()> {
        match self.pool.expect("threaded run").baton.take(self.me) {
            Some(w) => {
                self.w = w;
                self.holds = true;
                Ok(())
            }
            None => Err(Stop::Error("interpreter shut down".into())),
        }
    }

    /// Quantum expiry: offer the world to the scheduler's next pick and
    /// wait for our turn again.
    fn yield_baton(&mut self) -> R<()> {
        let next = self.w.pick_next(self.me, false);
        if next != self.me {
            self.pass_to(next);
            self.take_world()?;
        }
        if let Some(s) = &self.w.stop {
            return Err(s.clone().into());
        }
        Ok(())
    }

    /// `spawn f(args)`: evaluate callee and arguments in the parent,
    /// claim a free slot, open a new spawn instance on the logical
    /// clock, and queue the task for that slot's worker.
    fn exec_spawn(&mut self, call: ExprId) -> R<()> {
        let prog = self.prog;
        let ExprKind::Call { callee, args } = &prog.exprs.get(call).kind else {
            return Err(Stop::Error("spawn of a non-call expression".into()));
        };
        let Value::Func(f) = self.eval(*callee)? else {
            return Err(Stop::Error("spawned callee is not a function".into()));
        };
        let mut argv = Vec::with_capacity(args.len());
        for &a in args {
            argv.push(self.eval(a)?);
        }
        let Some(pool) = self.pool else {
            return Err(Stop::Error("spawn without a thread pool".into()));
        };
        let Some(slot) = self.w.slots.iter().position(|s| !s.live) else {
            return Err(Stop::Error(format!(
                "too many live threads (limit {MAX_CHILDREN})"
            )));
        };
        self.w.seq += 1;
        let inst = self.w.instances.len() as u32;
        self.w.instances.push(Inst {
            spawn_seq: self.w.seq,
            join_seq: None,
        });
        self.w.slots[slot] = SlotState {
            live: true,
            finished: false,
            inst,
        };
        let task = Task {
            func: f,
            args: argv,
            inst,
        };
        if pool.baton.deposit(slot + 1, task) {
            let (prog, cfg) = (self.prog, self.cfg);
            std::thread::Builder::new()
                .stack_size(INTERP_STACK)
                .spawn_scoped(pool.scope, move || worker_loop(prog, cfg, pool, slot + 1))
                .expect("spawn interpreter worker");
        }
        Ok(())
    }

    /// `join`: barrier until every live child finishes, then reap them
    /// all at one new point on the logical clock.
    fn exec_join(&mut self) -> R<()> {
        if !self.w.threaded {
            return Ok(());
        }
        loop {
            if let Some(s) = &self.w.stop {
                return Err(s.clone().into());
            }
            if !self.w.slots.iter().any(|s| s.live) {
                return Ok(());
            }
            if self.w.slots.iter().all(|s| !s.live || s.finished) {
                self.w.seq += 1;
                let j = self.w.seq;
                let World {
                    slots, instances, ..
                } = &mut self.w;
                for s in slots.iter_mut() {
                    if s.live {
                        instances[s.inst as usize].join_seq = Some(j);
                        s.live = false;
                        s.finished = false;
                    }
                }
                return Ok(());
            }
            self.w.main_blocked = true;
            let next = self.w.pick_next(self.me, true);
            self.pass_to(next);
            self.take_world()?;
            self.w.main_blocked = false;
        }
    }

    /// Flags conflicting cross-thread accesses to the same concrete
    /// location. An earlier access happens-before the current one iff it
    /// came from the same instance, from main before this instance was
    /// spawned, or from an instance joined before our spawn (or — when
    /// we are main — joined by now). Unordered conflicting pairs with at
    /// least one write land in [`Trace::races`].
    fn note_access(&mut self, site: ExprId, loc: &Loc, is_write: bool) {
        if !self.w.threaded || self.w.instances.len() == 1 {
            return;
        }
        let me = self.instance;
        let now = self.w.seq;
        let insts = &self.w.instances;
        let ordered = |x: &Access| {
            if x.inst == me {
                return true;
            }
            let mine = insts[me as usize];
            if x.inst == 0 && x.at < mine.spawn_seq {
                return true;
            }
            match insts[x.inst as usize].join_seq {
                Some(j) => j <= mine.spawn_seq || (me == 0 && j <= now),
                None => false,
            }
        };
        let entry = self.w.access.entry(loc.clone()).or_default();
        let mut pairs: Vec<(ExprId, ExprId)> = Vec::new();
        if let Some(xw) = &entry.last_write {
            if !ordered(xw) {
                pairs.push((xw.site.min(site), xw.site.max(site)));
            }
        }
        if is_write {
            for r in &entry.reads {
                if !ordered(r) {
                    pairs.push((r.site.min(site), r.site.max(site)));
                }
            }
            entry.last_write = Some(Access {
                inst: me,
                at: now,
                site,
            });
            entry.reads.clear();
        } else if let Some(r) = entry
            .reads
            .iter_mut()
            .find(|r| r.inst == me && r.site == site)
        {
            r.at = now;
        } else {
            entry.reads.push(Access {
                inst: me,
                at: now,
                site,
            });
        }
        self.w.trace.races.extend(pairs);
    }

    fn run_program(&mut self) -> R<i64> {
        // Globals.
        for (i, g) in self.prog.globals.iter().enumerate() {
            let v = Memory::value_of_type(self.types(), g.ty);
            let o = self.w.mem.alloc(v, Origin::Global(i as u32));
            self.w.globals.push(o);
        }
        // A pseudo-frame so global initializers can evaluate.
        self.frames.push(Frame { locals: Vec::new() });
        for gi in 0..self.prog.globals.len() {
            let g = &self.prog.globals[gi];
            if let Some(init) = g.init {
                let loc = Loc::of(self.w.globals[gi]);
                self.run_initializer(&loc, g.ty, init)?;
            }
        }
        self.frames.pop();

        let main = self
            .prog
            .func_by_name("main")
            .ok_or_else(|| Stop::Error("no main function".into()))?;
        let v = self.call_user(main.0, Vec::new())?;
        v.as_int().map_err(Stop::Error)
    }

    // ----- calls ---------------------------------------------------------

    fn call_user(&mut self, f: u32, args: Vec<Value>) -> R<Value> {
        self.tick()?;
        // Each interpreted frame consumes several host frames; the limit
        // keeps well within a test thread's 2 MiB stack.
        if self.frames.len() > 128 {
            return Err(Stop::Error("call stack too deep".into()));
        }
        let decl = &self.prog.funcs[f as usize];
        let mut locals = Vec::with_capacity(decl.vars.len());
        for (vi, v) in decl.vars.iter().enumerate() {
            let init = Memory::value_of_type(self.types(), v.ty);
            let o = self.w.mem.alloc(
                init,
                Origin::Local {
                    func: f,
                    slot: vi as u32,
                },
            );
            locals.push(o);
        }
        for (i, a) in args.into_iter().enumerate().take(decl.n_params) {
            let loc = Loc::of(locals[i]);
            self.w
                .mem
                .write(&loc, a, &self.prog.types)
                .map_err(Stop::Error)?;
        }
        self.frames.push(Frame { locals });
        let body = decl.body.as_ref().expect("called function has a body");
        let flow = self.exec_block(body)?;
        self.frames.pop();
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Uninit,
        })
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("active frame")
    }

    // ----- tracing helpers --------------------------------------------------

    fn record_read(&mut self, e: ExprId, loc: &Loc) {
        let id = self.w.loc_id(loc, &self.prog.types);
        match self.w.last_writer.get(id as usize).copied().flatten() {
            Some(w) => {
                self.w.trace.observed_writes.insert(w);
            }
            None => {
                self.w.trace.uninit_reads.insert(e);
            }
        }
        self.w.read_ids.insert((e, id));
        self.note_access(e, loc, false);
    }

    fn record_write(&mut self, e: ExprId, loc: &Loc) {
        let id = self.w.loc_id(loc, &self.prog.types);
        if self.w.last_writer.len() <= id as usize {
            self.w.last_writer.resize(self.w.abs.len(), None);
        }
        self.w.last_writer[id as usize] = Some(e);
        self.w.write_ids.insert((e, id));
        self.note_access(e, loc, true);
    }

    fn read_at(&mut self, e: ExprId, loc: &Loc) -> R<Value> {
        self.record_read(e, loc);
        match self.w.mem.read(loc, &self.prog.types) {
            Ok(v) => Ok(v),
            Err(m) => Err(self.classify_mem_error(e, m)),
        }
    }

    fn write_at(&mut self, e: ExprId, loc: &Loc, v: Value) -> R<()> {
        self.record_write(e, loc);
        // A pointer to a current-frame local stored outside that frame is
        // escape evidence for the dangling-local checker.
        if !self.frame().locals.contains(&loc.obj) && self.points_into_frame(&v) {
            self.w.trace.local_escapes.insert(e);
        }
        match self.w.mem.write(loc, v, &self.prog.types) {
            Ok(()) => Ok(()),
            Err(m) => Err(self.classify_mem_error(e, m)),
        }
    }

    /// Promotes a memory-layer error message to a classified fault when
    /// it names one of the checker-facing kinds.
    fn classify_mem_error(&mut self, e: ExprId, m: String) -> Stop {
        if m.contains("use after free") {
            self.fault(FaultKind::UseAfterFree, e, &m)
        } else {
            Stop::Error(m)
        }
    }

    /// Whether `v` (transitively) holds a pointer into the current frame's
    /// locals.
    fn points_into_frame(&self, v: &Value) -> bool {
        match v {
            Value::Ptr(l) => self
                .frames
                .last()
                .is_some_and(|f| f.locals.contains(&l.obj)),
            Value::Record(_, fields) => fields.iter().any(|f| self.points_into_frame(f)),
            Value::Array(elems) => elems.iter().any(|e| self.points_into_frame(e)),
            Value::Union(_, inner) => self.points_into_frame(inner),
            _ => false,
        }
    }

    // ----- statements ---------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> R<Flow> {
        for s in &b.stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> R<Flow> {
        self.tick()?;
        match s {
            Stmt::Expr(e) => {
                self.eval(*e)?;
                Ok(Flow::Normal)
            }
            Stmt::Local { ty, init, slot, .. } => {
                let slot = slot.expect("sema assigned slot");
                let obj = self.frame().locals[slot.0 as usize];
                // Re-entering a block re-initializes the object shape
                // (loops redeclare block-scoped locals).
                let fresh = Memory::value_of_type(self.types(), *ty);
                self.w
                    .mem
                    .write(&Loc::of(obj), fresh, &self.prog.types)
                    .map_err(Stop::Error)?;
                if let Some(init) = init {
                    let loc = Loc::of(obj);
                    self.run_initializer(&loc, *ty, *init)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.eval(*cond)?.truthy() {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                let mut laps = self.laps(s);
                while self.eval(*cond)?.truthy() {
                    self.tick()?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.lap(s, &mut laps)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                let mut laps = self.laps(s);
                loop {
                    self.tick()?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(*cond)?.truthy() {
                        break;
                    }
                    self.lap(s, &mut laps)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    if let Flow::Return(v) = self.exec_stmt(i)? {
                        return Ok(Flow::Return(v));
                    }
                }
                let mut laps = self.laps(s);
                loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !self.eval(*c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(st) = step {
                        self.eval(*st)?;
                    }
                    self.lap(s, &mut laps)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                let v = self.eval(*scrutinee)?.as_int().map_err(Stop::Error)?;
                for c in cases {
                    if c.values.contains(&v) {
                        return match self.exec_block(&c.body)? {
                            Flow::Break => Ok(Flow::Normal),
                            other => Ok(other),
                        };
                    }
                }
                if let Some(d) = default {
                    return match self.exec_block(d)? {
                        Flow::Break => Ok(Flow::Normal),
                        other => Ok(other),
                    };
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(v) => {
                        let val = self.eval(*v)?;
                        self.w.trace.returns.insert(*v);
                        // Returning a pointer to one of this frame's
                        // locals is escape evidence for the
                        // dangling-local checker.
                        if self.points_into_frame(&val) {
                            self.w.trace.local_escapes.insert(*v);
                        }
                        val
                    }
                    None => Value::Uninit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Spawn { call, .. } => {
                self.exec_spawn(*call)?;
                Ok(Flow::Normal)
            }
            Stmt::Join(_) => {
                self.exec_join()?;
                Ok(Flow::Normal)
            }
        }
    }

    fn run_initializer(&mut self, loc: &Loc, ty: cfront::types::TypeId, init: ExprId) -> R<()> {
        let prog = self.prog;
        match &prog.exprs.get(init).kind {
            ExprKind::InitList(items) => match *prog.types.kind(ty) {
                TypeKind::Array(elem, _) => {
                    for (i, &item) in items.iter().enumerate() {
                        let el = loc.push(CStep::Elem(i as u32));
                        self.run_initializer(&el, elem, item)?;
                    }
                    Ok(())
                }
                TypeKind::Record(r) => {
                    let fields = &prog.types.record(r).fields;
                    for (i, (&item, f)) in items.iter().zip(fields).enumerate() {
                        let fl = loc.push(CStep::Field {
                            rec: r,
                            idx: i as u32,
                        });
                        self.run_initializer(&fl, f.ty, item)?;
                    }
                    Ok(())
                }
                _ => Err(Stop::Error("init list on scalar".into())),
            },
            ExprKind::StrLit(s) if self.types().is_array(ty) => {
                // `char buf[N] = "text"`.
                for (i, b) in s.bytes().chain(std::iter::once(0)).enumerate() {
                    let el = loc.push(CStep::Elem(i as u32));
                    self.w
                        .mem
                        .write(&el, Value::Int(b as i64), &self.prog.types)
                        .map_err(Stop::Error)?;
                }
                Ok(())
            }
            _ => {
                let v = self.eval(init)?;
                self.write_at(init, loc, v)
            }
        }
    }

    // ----- lvalues ----------------------------------------------------------

    fn as_ptr_at(&mut self, e: ExprId, v: Value) -> R<Loc> {
        match v {
            Value::Ptr(l) => Ok(l),
            Value::Null => Err(self.fault(FaultKind::NullDeref, e, "null pointer dereference")),
            Value::Uninit => Err(self.fault(
                FaultKind::UninitDeref,
                e,
                "dereference of uninitialized pointer",
            )),
            other => Err(Stop::Error(format!("dereference of non-pointer {other:?}"))),
        }
    }

    fn eval_lvalue(&mut self, e: ExprId) -> R<Loc> {
        let prog = self.prog;
        match &prog.exprs.get(e).kind {
            ExprKind::Ident { target, .. } => match target.expect("resolved") {
                IdentTarget::Local(slot) => Ok(Loc::of(self.frame().locals[slot.0 as usize])),
                IdentTarget::Global(g) => Ok(Loc::of(self.w.globals[g.0 as usize])),
                _ => Err(Stop::Error("function is not an object lvalue".into())),
            },
            ExprKind::Unary {
                op: UnOp::Deref,
                arg,
            } => {
                let v = self.eval(*arg)?;
                self.as_ptr_at(e, v)
            }
            ExprKind::Member {
                base,
                arrow,
                record,
                field_index,
                ..
            } => {
                let rec = record.expect("resolved");
                let idx = field_index.expect("resolved") as u32;
                let mut base_loc = if *arrow {
                    let v = self.eval(*base)?;
                    self.as_ptr_at(e, v)?
                } else {
                    self.eval_lvalue(*base)?
                };
                base_loc.path.push(CStep::Field { rec, idx });
                Ok(base_loc)
            }
            ExprKind::Index { base, index } => {
                let i = self.eval(*index)?.as_int().map_err(Stop::Error)?;
                let bt = prog.exprs.ty(*base);
                if prog.types.is_array(bt) {
                    if i < 0 {
                        return Err(Stop::Error("negative array index".into()));
                    }
                    let mut bl = self.eval_lvalue(*base)?;
                    bl.path.push(CStep::Elem(i as u32));
                    Ok(bl)
                } else {
                    let v = self.eval(*base)?;
                    let l = self.as_ptr_at(e, v)?;
                    l.add(i).map_err(Stop::Error)
                }
            }
            ExprKind::StrLit(s) => {
                let o = self.w.mem.str_object(e, s);
                Ok(Loc::of(o))
            }
            _ => Err(Stop::Error("expression is not an lvalue".into())),
        }
    }

    /// Whether `e` is an lvalue expression after sema.
    fn is_lvalue(&self, e: ExprId) -> bool {
        match &self.prog.exprs.get(e).kind {
            ExprKind::Ident { target, .. } => !matches!(
                target,
                Some(IdentTarget::Func(_)) | Some(IdentTarget::Builtin(_))
            ),
            ExprKind::Unary {
                op: UnOp::Deref, ..
            } => true,
            ExprKind::Member { base, arrow, .. } => *arrow || self.is_lvalue(*base),
            ExprKind::Index { .. } => true,
            ExprKind::StrLit(_) => true,
            _ => false,
        }
    }

    // ----- expressions ---------------------------------------------------------

    fn eval(&mut self, e: ExprId) -> R<Value> {
        self.tick()?;
        let prog = self.prog;
        match prog.exprs.get(e).kind {
            ExprKind::IntLit(v) => Ok(Value::Int(v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(v)),
            ExprKind::SizeofType(t) => Ok(Value::Int(self.types().size_of(t) as i64)),
            ExprKind::SizeofExpr(arg) => {
                let t = self.prog.exprs.ty(arg);
                Ok(Value::Int(self.types().size_of(t) as i64))
            }
            ExprKind::Null => Ok(Value::Null),
            ExprKind::StrLit(ref s) => {
                let o = self.w.mem.str_object(e, s);
                Ok(Value::Ptr(Loc::of(o).push(CStep::Elem(0))))
            }
            ExprKind::Ident { target, .. } => match target.expect("resolved") {
                IdentTarget::Func(f) => Ok(Value::Func(f.0)),
                IdentTarget::Builtin(_) => Err(Stop::Error("builtin used as a value".into())),
                _ => self.read_lvalue_rvalue(e),
            },
            ExprKind::Unary { op, arg } => match op {
                UnOp::Deref => {
                    if self.types().is_func(self.prog.exprs.ty(e)) {
                        return self.eval(arg);
                    }
                    let v = self.eval(arg)?;
                    let loc = self.as_ptr_at(e, v)?;
                    if self.types().is_array(self.prog.exprs.ty(e)) {
                        return Ok(Value::Ptr(loc.push(CStep::Elem(0))));
                    }
                    self.read_at(e, &loc)
                }
                UnOp::Addr => {
                    if self.types().is_func(self.prog.exprs.ty(arg)) {
                        return self.eval(arg);
                    }
                    let loc = self.eval_lvalue(arg)?;
                    Ok(Value::Ptr(loc))
                }
                UnOp::Neg => match self.eval(arg)? {
                    Value::Float(f) => Ok(Value::Float(-f)),
                    v => Ok(Value::Int(v.as_int().map_err(Stop::Error)?.wrapping_neg())),
                },
                UnOp::Not => Ok(Value::Int(i64::from(!self.eval(arg)?.truthy()))),
                UnOp::BitNot => Ok(Value::Int(!self.eval(arg)?.as_int().map_err(Stop::Error)?)),
            },
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } => {
                match op {
                    None => {
                        // Address before value, matching the VDG builder's
                        // store-threading order.
                        let loc = self.eval_lvalue(lhs)?;
                        let v = self.eval(rhs)?;
                        self.write_at(lhs, &loc, v.clone())?;
                        Ok(v)
                    }
                    Some(op) => {
                        let loc = self.eval_lvalue(lhs)?;
                        let old = self.read_at(lhs, &loc)?;
                        let rv = self.eval(rhs)?;
                        let new = self.apply_binop(op, old, rv)?;
                        self.write_at(lhs, &loc, new.clone())?;
                        Ok(new)
                    }
                }
            }
            ExprKind::IncDec { pre, inc, arg } => {
                let loc = self.eval_lvalue(arg)?;
                let old = self.read_at(arg, &loc)?;
                let delta = if inc { 1 } else { -1 };
                let new = match &old {
                    Value::Ptr(l) => Value::Ptr(l.add(delta).map_err(Stop::Error)?),
                    Value::Float(f) => Value::Float(f + delta as f64),
                    v => Value::Int(v.as_int().map_err(Stop::Error)?.wrapping_add(delta)),
                };
                self.write_at(arg, &loc, new.clone())?;
                Ok(if pre { new } else { old })
            }
            ExprKind::Call { callee, ref args } => self.eval_call(e, callee, args),
            ExprKind::Member {
                base,
                record,
                field_index,
                ..
            } => {
                if self.is_lvalue(e) {
                    self.read_lvalue_rvalue(e)
                } else {
                    // Field of a struct rvalue (e.g. returned by value).
                    let v = self.eval(base)?;
                    let rec = record.expect("resolved");
                    let idx = field_index.expect("resolved");
                    match v {
                        Value::Record(r, fields) if r == rec => {
                            Ok(fields.get(idx).cloned().unwrap_or(Value::Uninit))
                        }
                        Value::Union(_, inner) => Ok(*inner),
                        other => Err(Stop::Error(format!(
                            "member access on non-struct value {other:?}"
                        ))),
                    }
                }
            }
            ExprKind::Index { .. } => self.read_lvalue_rvalue(e),
            ExprKind::Cast { ty, arg } => {
                let v = self.eval(arg)?;
                match self.types().kind(ty).clone() {
                    TypeKind::Ptr(_) => Ok(v),
                    TypeKind::Float => Ok(Value::Float(v.as_float().map_err(Stop::Error)?)),
                    TypeKind::Int | TypeKind::Char => {
                        Ok(Value::Int(v.as_int().map_err(Stop::Error)?))
                    }
                    TypeKind::Void => Ok(Value::Int(0)),
                    _ => Ok(v),
                }
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            ExprKind::InitList(_) => Err(Stop::Error("init list outside declaration".into())),
            ExprKind::Comma { lhs, rhs } => {
                self.eval(lhs)?;
                self.eval(rhs)
            }
        }
    }

    /// Reads an lvalue expression as an rvalue, decaying arrays.
    fn read_lvalue_rvalue(&mut self, e: ExprId) -> R<Value> {
        let ty = self.prog.exprs.ty(e);
        if self.types().is_array(ty) {
            let loc = self.eval_lvalue(e)?;
            return Ok(Value::Ptr(loc.push(CStep::Elem(0))));
        }
        let loc = self.eval_lvalue(e)?;
        self.read_at(e, &loc)
    }

    fn eval_binary(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> R<Value> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                if !self.eval(lhs)?.truthy() {
                    return Ok(Value::Int(0));
                }
                return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
            }
            BinOp::Or => {
                if self.eval(lhs)?.truthy() {
                    return Ok(Value::Int(1));
                }
                return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
            }
            _ => {}
        }
        let a = self.eval(lhs)?;
        let b = self.eval(rhs)?;
        self.apply_binop(op, a, b)
    }

    fn apply_binop(&mut self, op: BinOp, a: Value, b: Value) -> R<Value> {
        use BinOp::*;
        // Pointer arithmetic and comparisons.
        match (&a, &b, op) {
            (Value::Ptr(l), _, Add) => {
                let i = b.as_int().map_err(Stop::Error)?;
                return Ok(Value::Ptr(l.add(i).map_err(Stop::Error)?));
            }
            (_, Value::Ptr(l), Add) => {
                let i = a.as_int().map_err(Stop::Error)?;
                return Ok(Value::Ptr(l.add(i).map_err(Stop::Error)?));
            }
            (Value::Ptr(l), _, Sub) if !matches!(b, Value::Ptr(_) | Value::Null) => {
                let i = b.as_int().map_err(Stop::Error)?;
                return Ok(Value::Ptr(l.add(-i).map_err(Stop::Error)?));
            }
            (Value::Ptr(x), Value::Ptr(y), Sub) => {
                return self.ptr_diff(x, y).map(Value::Int);
            }
            (
                Value::Ptr(_) | Value::Null | Value::Func(_),
                Value::Ptr(_) | Value::Null | Value::Func(_),
                Eq,
            ) => {
                return Ok(Value::Int(i64::from(a == b)));
            }
            (
                Value::Ptr(_) | Value::Null | Value::Func(_),
                Value::Ptr(_) | Value::Null | Value::Func(_),
                Ne,
            ) => {
                return Ok(Value::Int(i64::from(a != b)));
            }
            (Value::Ptr(x), Value::Ptr(y), Lt | Gt | Le | Ge) => {
                let d = self.ptr_diff(x, y)?;
                let r = match op {
                    Lt => d < 0,
                    Gt => d > 0,
                    Le => d <= 0,
                    _ => d >= 0,
                };
                return Ok(Value::Int(i64::from(r)));
            }
            _ => {}
        }
        // Floating point.
        if matches!(a, Value::Float(_)) || matches!(b, Value::Float(_)) {
            let x = a.as_float().map_err(Stop::Error)?;
            let y = b.as_float().map_err(Stop::Error)?;
            return Ok(match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => {
                    if y == 0.0 {
                        return Err(Stop::Error("division by zero".into()));
                    }
                    Value::Float(x / y)
                }
                Lt => Value::Int(i64::from(x < y)),
                Gt => Value::Int(i64::from(x > y)),
                Le => Value::Int(i64::from(x <= y)),
                Ge => Value::Int(i64::from(x >= y)),
                Eq => Value::Int(i64::from(x == y)),
                Ne => Value::Int(i64::from(x != y)),
                _ => return Err(Stop::Error("invalid float operation".into())),
            });
        }
        // Integers.
        let x = a.as_int().map_err(Stop::Error)?;
        let y = b.as_int().map_err(Stop::Error)?;
        Ok(Value::Int(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(Stop::Error("division by zero".into()));
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(Stop::Error("remainder by zero".into()));
                }
                x.wrapping_rem(y)
            }
            Lt => i64::from(x < y),
            Gt => i64::from(x > y),
            Le => i64::from(x <= y),
            Ge => i64::from(x >= y),
            Eq => i64::from(x == y),
            Ne => i64::from(x != y),
            BitAnd => x & y,
            BitOr => x | y,
            BitXor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            And | Or => unreachable!("short-circuited"),
        }))
    }

    fn ptr_diff(&self, x: &Loc, y: &Loc) -> R<i64> {
        if x.obj != y.obj {
            return Err(Stop::Error("pointer difference across objects".into()));
        }
        let (xi, yi) = match (x.path.last(), y.path.last()) {
            (Some(CStep::Elem(a)), Some(CStep::Elem(b)))
                if x.path[..x.path.len() - 1] == y.path[..y.path.len() - 1] =>
            {
                (*a as i64, *b as i64)
            }
            _ if x.path == y.path => (0, 0),
            _ => return Err(Stop::Error("incomparable pointers".into())),
        };
        Ok(xi - yi)
    }

    // ----- calls & builtins ------------------------------------------------------

    fn eval_call(&mut self, e: ExprId, callee: ExprId, args: &[ExprId]) -> R<Value> {
        // Builtins (peeling &/* like the lowering does).
        let mut c = callee;
        while let ExprKind::Unary {
            op: UnOp::Deref | UnOp::Addr,
            arg,
        } = &self.prog.exprs.get(c).kind
        {
            c = *arg;
        }
        if let ExprKind::Ident {
            target: Some(IdentTarget::Builtin(b)),
            ..
        } = self.prog.exprs.get(c).kind
        {
            return self.eval_builtin(e, b, args);
        }
        let fv = self.eval(callee)?;
        let Value::Func(f) = fv else {
            return Err(Stop::Error("called value is not a function".into()));
        };
        let mut argv = Vec::with_capacity(args.len());
        for &a in args {
            argv.push(self.eval(a)?);
        }
        self.call_user(f, argv)
    }

    fn getchar(&mut self) -> i64 {
        match self.cfg.input.get(self.w.input_pos) {
            Some(&b) => {
                self.w.input_pos += 1;
                b as i64
            }
            None => -1,
        }
    }

    fn read_byte(&mut self, loc: &Loc) -> R<i64> {
        self.w
            .mem
            .read(loc, &self.prog.types)
            .map_err(Stop::Error)?
            .as_int()
            .map_err(Stop::Error)
    }

    fn c_string(&mut self, mut loc: Loc) -> R<String> {
        let mut s = String::new();
        loop {
            let b = self.read_byte(&loc)?;
            if b == 0 {
                return Ok(s);
            }
            s.push(b as u8 as char);
            loc = loc.add(1).map_err(Stop::Error)?;
            if s.len() > 1_000_000 {
                return Err(Stop::Error("unterminated string".into()));
            }
        }
    }

    fn write_c_string(&mut self, mut loc: Loc, s: &str) -> R<()> {
        for b in s.bytes().chain(std::iter::once(0)) {
            self.w
                .mem
                .write(&loc, Value::Int(b as i64), &self.prog.types)
                .map_err(Stop::Error)?;
            loc = loc.add(1).map_err(Stop::Error)?;
        }
        Ok(())
    }

    fn format(&mut self, fmt: &str, args: &[Value]) -> R<String> {
        let mut out = String::new();
        let mut ai = 0;
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // Skip flags/width/length; find the conversion letter.
            let mut conv = None;
            for c2 in chars.by_ref() {
                if c2.is_ascii_alphabetic() || c2 == '%' {
                    conv = Some(match c2 {
                        'l' | 'h' => continue,
                        other => other,
                    });
                    break;
                }
            }
            let Some(conv) = conv else { break };
            if conv == '%' {
                out.push('%');
                continue;
            }
            let arg = args.get(ai).cloned().unwrap_or(Value::Int(0));
            ai += 1;
            match conv {
                'd' | 'i' | 'u' => out.push_str(&arg.as_int().map_err(Stop::Error)?.to_string()),
                'x' => out.push_str(&format!("{:x}", arg.as_int().map_err(Stop::Error)?)),
                'o' => out.push_str(&format!("{:o}", arg.as_int().map_err(Stop::Error)?)),
                'c' => out.push(arg.as_int().map_err(Stop::Error)? as u8 as char),
                'f' | 'g' | 'e' => {
                    out.push_str(&format!("{:.6}", arg.as_float().map_err(Stop::Error)?))
                }
                's' => match arg {
                    Value::Ptr(l) => out.push_str(&self.c_string(l)?),
                    Value::Null => out.push_str("(null)"),
                    other => return Err(Stop::Error(format!("%s with non-pointer {other:?}"))),
                },
                'p' => out.push_str("0xptr"),
                other => return Err(Stop::Error(format!("unsupported format %{other}"))),
            }
        }
        Ok(out)
    }

    fn eval_builtin(&mut self, e: ExprId, b: Builtin, args: &[ExprId]) -> R<Value> {
        let mut argv = Vec::with_capacity(args.len());
        for &a in args {
            argv.push(self.eval(a)?);
        }
        use Builtin::*;
        match b {
            Malloc | Calloc => {
                let o = self.w.mem.alloc(Value::Uninit, Origin::Heap(e));
                Ok(Value::Ptr(Loc::of(o).push(CStep::Elem(0))))
            }
            Realloc => {
                let o = self.w.mem.alloc(Value::Uninit, Origin::Heap(e));
                if let Value::Ptr(src) = &argv[0] {
                    let root = Loc::of(src.obj);
                    let v = self
                        .w
                        .mem
                        .read(&root, &self.prog.types)
                        .map_err(Stop::Error)?;
                    self.w
                        .mem
                        .write(&Loc::of(o), v, &self.prog.types)
                        .map_err(Stop::Error)?;
                }
                Ok(Value::Ptr(Loc::of(o).push(CStep::Elem(0))))
            }
            Strdup => {
                let Value::Ptr(src) = argv[0].clone() else {
                    return Err(Stop::Error("strdup of non-pointer".into()));
                };
                let s = self.c_string(src)?;
                let o = self.w.mem.alloc(Value::Uninit, Origin::Heap(e));
                let dst = Loc::of(o).push(CStep::Elem(0));
                self.write_c_string(dst.clone(), &s)?;
                Ok(Value::Ptr(dst))
            }
            Free => match argv[0].clone() {
                // `free(NULL)` is a no-op, as in C.
                Value::Null => Ok(Value::Int(0)),
                Value::Ptr(l) => {
                    if !matches!(self.w.mem.origin(l.obj), Origin::Heap(_)) {
                        return Err(self.fault(
                            FaultKind::InvalidFree,
                            e,
                            "free of a non-heap pointer",
                        ));
                    }
                    // Record the free site first so the trace keys are
                    // exactly the executed frees, faulting or not.
                    let id = self.w.loc_id(&Loc::of(l.obj), &self.prog.types);
                    self.w.free_ids.insert((e, id));
                    if !self.w.mem.free(l.obj) {
                        return Err(self.fault(
                            FaultKind::DoubleFree,
                            e,
                            "double free of heap object",
                        ));
                    }
                    Ok(Value::Int(0))
                }
                _ => Err(self.fault(FaultKind::InvalidFree, e, "free of a non-pointer")),
            },
            Strcpy | Strncpy => {
                let (Value::Ptr(d), Value::Ptr(s)) = (argv[0].clone(), argv[1].clone()) else {
                    return Err(Stop::Error("strcpy needs pointers".into()));
                };
                let mut text = self.c_string(s)?;
                if b == Strncpy {
                    let n = argv[2].as_int().map_err(Stop::Error)? as usize;
                    text.truncate(n);
                }
                self.write_c_string(d.clone(), &text)?;
                Ok(Value::Ptr(d))
            }
            Strcat => {
                let (Value::Ptr(d), Value::Ptr(s)) = (argv[0].clone(), argv[1].clone()) else {
                    return Err(Stop::Error("strcat needs pointers".into()));
                };
                let head = self.c_string(d.clone())?;
                let tail = self.c_string(s)?;
                self.write_c_string(d.clone(), &format!("{head}{tail}"))?;
                Ok(Value::Ptr(d))
            }
            Strcmp | Strncmp => {
                let (Value::Ptr(x), Value::Ptr(y)) = (argv[0].clone(), argv[1].clone()) else {
                    return Err(Stop::Error("strcmp needs pointers".into()));
                };
                let mut a = self.c_string(x)?;
                let mut bs = self.c_string(y)?;
                if b == Strncmp {
                    let n = argv[2].as_int().map_err(Stop::Error)? as usize;
                    a.truncate(n);
                    bs.truncate(n);
                }
                Ok(Value::Int(match a.cmp(&bs) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            Strlen => {
                let Value::Ptr(p) = argv[0].clone() else {
                    return Err(Stop::Error("strlen of non-pointer".into()));
                };
                Ok(Value::Int(self.c_string(p)?.len() as i64))
            }
            Strchr => {
                let Value::Ptr(p) = argv[0].clone() else {
                    return Err(Stop::Error("strchr of non-pointer".into()));
                };
                let target = argv[1].as_int().map_err(Stop::Error)? as u8 as char;
                let s = self.c_string(p.clone())?;
                match s.find(target) {
                    Some(i) => Ok(Value::Ptr(p.add(i as i64).map_err(Stop::Error)?)),
                    None => Ok(Value::Null),
                }
            }
            Memcpy | Memmove => {
                let (Value::Ptr(d), Value::Ptr(s)) = (argv[0].clone(), argv[1].clone()) else {
                    return Err(Stop::Error("memcpy needs pointers".into()));
                };
                // Copy the pointed-to region: whole sub-objects in this
                // model (callers use `sizeof` of that object).
                let dc = Self::container(&d);
                let sc = Self::container(&s);
                let v = self
                    .w
                    .mem
                    .read(&sc, &self.prog.types)
                    .map_err(Stop::Error)?;
                self.w
                    .mem
                    .write(&dc, v, &self.prog.types)
                    .map_err(Stop::Error)?;
                Ok(argv[0].clone())
            }
            Memset => {
                let Value::Ptr(d) = argv[0].clone() else {
                    return Err(Stop::Error("memset of non-pointer".into()));
                };
                let fill = argv[1].clone();
                let dc = Self::container(&d);
                let slot = self
                    .w
                    .mem
                    .slot_mut(&dc, &self.prog.types)
                    .map_err(Stop::Error)?;
                fill_with(slot, &fill);
                Ok(argv[0].clone())
            }
            Printf => {
                let Value::Ptr(f) = argv[0].clone() else {
                    return Err(Stop::Error("printf needs a format string".into()));
                };
                let fmt = self.c_string(f)?;
                let s = self.format(&fmt, &argv[1..])?;
                let n = s.len() as i64;
                self.w.out.push_str(&s);
                Ok(Value::Int(n))
            }
            Sprintf => {
                let (Value::Ptr(d), Value::Ptr(f)) = (argv[0].clone(), argv[1].clone()) else {
                    return Err(Stop::Error("sprintf needs pointers".into()));
                };
                let fmt = self.c_string(f)?;
                let s = self.format(&fmt, &argv[2..])?;
                self.write_c_string(d, &s)?;
                Ok(Value::Int(s.len() as i64))
            }
            Puts => {
                let Value::Ptr(p) = argv[0].clone() else {
                    return Err(Stop::Error("puts of non-pointer".into()));
                };
                let s = self.c_string(p)?;
                self.w.out.push_str(&s);
                self.w.out.push('\n');
                Ok(Value::Int(0))
            }
            Putchar => {
                let c = argv[0].as_int().map_err(Stop::Error)?;
                self.w.out.push(c as u8 as char);
                Ok(Value::Int(c))
            }
            Getchar => Ok(Value::Int(self.getchar())),
            Atoi => {
                let Value::Ptr(p) = argv[0].clone() else {
                    return Err(Stop::Error("atoi of non-pointer".into()));
                };
                let s = self.c_string(p)?;
                let t = s.trim();
                let end = t
                    .char_indices()
                    .take_while(|(i, c)| {
                        c.is_ascii_digit() || (*i == 0 && (*c == '-' || *c == '+'))
                    })
                    .map(|(i, c)| i + c.len_utf8())
                    .last()
                    .unwrap_or(0);
                Ok(Value::Int(t[..end].parse().unwrap_or(0)))
            }
            Exit => Err(Stop::Exit(argv[0].as_int().map_err(Stop::Error)?)),
            Abs => Ok(Value::Int(argv[0].as_int().map_err(Stop::Error)?.abs())),
            Rand => {
                self.w.rng = self
                    .w
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Ok(Value::Int(((self.w.rng >> 33) & 0x7fff_ffff) as i64))
            }
            Srand => {
                self.w.rng = argv[0].as_int().map_err(Stop::Error)? as u64 | 1;
                Ok(Value::Int(0))
            }
        }
    }

    /// Drops a trailing `[0]` so `memcpy(a, b, n)` style calls address the
    /// containing object.
    fn container(loc: &Loc) -> Loc {
        let mut l = loc.clone();
        if matches!(l.path.last(), Some(CStep::Elem(0))) {
            l.path.pop();
        }
        l
    }
}

/// Recursively fills scalar slots with `fill` (the `memset` model).
fn fill_with(slot: &mut Value, fill: &Value) {
    match slot {
        Value::Record(_, fields) => {
            for f in fields {
                fill_with(f, fill);
            }
        }
        Value::Array(elems) => {
            for e in elems {
                fill_with(e, fill);
            }
        }
        Value::Union(_, inner) => fill_with(inner, fill),
        other => {
            *other = match fill {
                Value::Int(v) => Value::Int(*v),
                _ => Value::Int(0),
            }
        }
    }
}
