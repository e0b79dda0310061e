//! The run-scoped helper pool of a large latency-partitioned transient.
//!
//! A 64×64 array transient spends about half its time in passes over every
//! transistor, capacitor branch or Jacobian slot: re-linearizing the
//! capacitor table, building the companion stamps, rebuilding the linear
//! Jacobian part, deciding dormancy and evaluating devices. Each is a set
//! of independent per-item updates, so each splits into contiguous chunks
//! that any thread may run in any order with the same bits.
//!
//! A scoped spawn per pass costs far more than the split saves (about
//! 210 µs of start-up against passes of 0.2–1.7 ms). So a run opens one
//! `std::thread::scope`, starts its helpers once inside it ([`Pool::start`])
//! and keeps them for every pass of the run. Life cycle of a helper:
//!
//! * it waits for a job, spinning for a bounded number of polls
//!   ([`SPIN_POLLS`], about 60 µs) and then parking in a blocking receive;
//! * it runs chunks of the job until none is left, drops its handle on the
//!   job (so the caller gets sole ownership of every buffer back) and
//!   replies;
//! * it exits when the run drops the pool: its job channel disconnects.
//!   The run then joins it ([`Helpers`]), on success, on error and on
//!   unwind alike.
//!
//! Measured on a 2-vCPU VM: a whole pass round trip to a still-spinning
//! helper costs about 1 µs; a parked helper starts its first chunk 7 µs
//! (p50) after a 0.1 ms idle gap, 14 µs after 0.4 ms and 22 µs after 1 ms.
//!
//! Safety model, all safe Rust: a job is an `Arc`'d closure that may borrow
//! only what outlives the run (the circuit) and owns everything else — the
//! shared buffers it writes are [`SharedF64`] arrays or `Mutex`-guarded
//! shards, reached through handles cloned into the closure. Chunks touch
//! disjoint items, so no lock is ever contended and no atomic is ever raced;
//! the job and reply messages order every write before the caller's next
//! read. A panic inside a helper's chunk is caught, carried back in the
//! reply and resumed on the caller's thread.
//!
//! [`Pool::run`] runs a pass to completion; [`Pool::submit`] hands it to the
//! helpers and returns, so the caller can do unrelated serial work while
//! they wake, and joins later.
//!
//! Helpers open no trace span and write no timeline event: the caller's
//! span around a pass (or its join) covers the pass's wall-clock time on
//! the caller, so a traced pooled run reports the same span tree as a
//! serial one.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

use crate::latency::POOL_THREAD_NAME;
use crate::netlist::Circuit;

/// Polls of an empty channel before a waiting thread parks. Each poll is
/// one `try_recv` plus a spin hint, so a helper stays awake for about
/// 60 µs after a job: long enough to catch the next pass of the same
/// assembly, short enough not to burn a core through a triangular solve.
const SPIN_POLLS: u32 = 2048;

/// Chunks per thread in every pooled pass. More chunks than threads lets
/// the threads even out uneven chunks (a wordline's refreshing row lands in
/// one chunk) at the cost of one atomic claim per chunk.
const CHUNKS_PER_WORKER: usize = 4;

/// One pass of a run: `run(k)` processes chunk `k`, for every chunk
/// `k < chunks`, each exactly once, claimed from `next`.
struct Job<F> {
    run: F,
    chunks: usize,
    next: AtomicUsize,
}

/// A [`Job`] with its closure type erased, as the helpers receive it.
trait Drain: Send + Sync {
    /// Runs chunks until every one has been claimed.
    fn drain(&self);
}

impl<F: Fn(usize) + Send + Sync> Drain for Job<F> {
    fn drain(&self) {
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.chunks {
                return;
            }
            (self.run)(k);
        }
    }
}

/// A helper's answer to one job: done, or the panic that ended its chunk.
type Reply = Result<(), Box<dyn Any + Send>>;

/// The caller's end of one helper thread.
struct Helper<'c> {
    jobs: SyncSender<Arc<dyn Drain + 'c>>,
    replies: Receiver<Reply>,
}

/// The helper threads of one run and the chunk layout its passes share.
///
/// Built inside the run's `std::thread::scope` by [`Pool::start`]; dropping
/// it disconnects every helper, which then exits.
pub(crate) struct Pool<'c> {
    helpers: Vec<Helper<'c>>,
    /// The caller's copy of the state vector, readable by every helper.
    x: SharedF64,
    /// `devices[k]..devices[k + 1]`: the transistors of chunk `k`, cut
    /// between latency partitions, never through one.
    pub(crate) devices: Arc<[usize]>,
    /// `branches[k]..branches[k + 1]`: the capacitor-table branches of
    /// chunk `k` — its transistors' branches, and for chunk 0 also the
    /// explicit capacitors that head the table.
    pub(crate) branches: Arc<[usize]>,
}

impl fmt::Debug for Pool<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl<'c> Pool<'c> {
    /// Starts `helpers` helper threads on `scope` for a run of `circuit`,
    /// whose state vector has `n_x` unknowns, and lays out its chunks:
    /// [`CHUNKS_PER_WORKER`] per thread. Drop the pool before the returned
    /// [`Helpers`]: the pool's end stops the helpers, the handles' end waits
    /// for their threads to exit.
    pub(crate) fn start<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        helpers: usize,
        circuit: &Circuit,
        n_x: usize,
    ) -> (Pool<'c>, Helpers<'scope>)
    where
        'c: 'scope,
    {
        let devices = device_bounds(circuit, (helpers + 1) * CHUNKS_PER_WORKER);
        let branches = branch_bounds(circuit, &devices);
        let mut threads = Vec::with_capacity(helpers);
        let helpers = (0..helpers)
            .map(|_| {
                let (jobs, job_rx) = sync_channel::<Arc<dyn Drain + 'c>>(1);
                let (reply_tx, replies) = sync_channel(1);
                let helper = std::thread::Builder::new()
                    .name(POOL_THREAD_NAME.into())
                    .spawn_scoped(scope, move || helper_loop(&job_rx, &reply_tx))
                    .expect("failed to spawn a pool helper thread");
                threads.push(helper);
                Helper { jobs, replies }
            })
            .collect();
        let pool = Pool {
            helpers,
            x: SharedF64::zeros(n_x),
            devices: devices.into(),
            branches: branches.into(),
        };
        (pool, Helpers(threads))
    }

    /// Number of chunks of the per-device and per-branch passes.
    pub(crate) fn chunks(&self) -> usize {
        self.devices.len() - 1
    }

    /// Runs `run(k)` for every chunk `k < chunks`, each exactly once, on
    /// the caller and every helper, and returns when all chunks are done.
    /// Chunks are claimed in index order as threads free up, so a thread
    /// that draws cheap chunks takes over part of a slower one's share.
    ///
    /// # Panics
    ///
    /// Resumes the first panic of a chunk, on the caller's thread, once
    /// every worker has finished.
    pub(crate) fn run(&self, chunks: usize, run: impl Fn(usize) + Send + Sync + 'c) {
        self.submit(chunks, run).join();
    }

    /// Hands `run(k)` for every chunk `k < chunks` to the helpers and
    /// returns at once, so the caller can do unrelated work while they
    /// wake and start; [`Pending::join`] then claims what is left and
    /// waits. No other job may start before the join.
    pub(crate) fn submit(
        &self,
        chunks: usize,
        run: impl Fn(usize) + Send + Sync + 'c,
    ) -> Pending<'_, 'c> {
        let job: Arc<dyn Drain + 'c> = Arc::new(Job {
            run,
            chunks,
            next: AtomicUsize::new(0),
        });
        for h in &self.helpers {
            h.jobs
                .send(Arc::clone(&job))
                .expect("pool helper exited during a run");
        }
        Pending {
            pool: self,
            job: Some(job),
        }
    }

    /// Copies the state vector `x` where every helper can read it, and
    /// returns a handle on the copy for a job to own.
    pub(crate) fn share_x(&self, x: &[f64]) -> SharedF64 {
        self.x.copy_from(x);
        self.x.alias()
    }
}

/// A job handed to the helpers by [`Pool::submit`]. Dropped without a
/// [`join`](Pending::join) (on unwind), it still waits for the helpers.
pub(crate) struct Pending<'p, 'c> {
    pool: &'p Pool<'c>,
    job: Option<Arc<dyn Drain + 'c>>,
}

impl Pending<'_, '_> {
    /// Claims and runs the chunks no helper has taken yet, then waits for
    /// every helper to finish.
    ///
    /// # Panics
    ///
    /// Resumes the first panic of a chunk, on the caller's thread.
    pub(crate) fn join(mut self) {
        if let Some(payload) = self.finish() {
            panic::resume_unwind(payload);
        }
    }

    /// The join without the resume: the first panic of a chunk, if any.
    fn finish(&mut self) -> Option<Box<dyn Any + Send>> {
        let job = self.job.take()?;
        let mine = panic::catch_unwind(AssertUnwindSafe(|| job.drain()));
        drop(job);
        let mut first_panic = mine.err();
        for h in &self.pool.helpers {
            match wait(&h.replies) {
                Some(Ok(())) => {}
                Some(Err(payload)) => {
                    first_panic.get_or_insert(payload);
                }
                None => panic!("pool helper exited during a run"),
            }
        }
        first_panic
    }
}

impl Drop for Pending<'_, '_> {
    fn drop(&mut self) {
        // Reached without a join only while unwinding: that panic wins.
        let _ = self.finish();
    }
}

/// The helper threads of a [`Pool`]. Dropping them waits until every
/// thread has exited, so a run leaves no thread behind, whichever way it
/// ends.
pub(crate) struct Helpers<'scope>(Vec<ScopedJoinHandle<'scope, ()>>);

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        for thread in self.0.drain(..) {
            // A helper runs every job under `catch_unwind` and ends when
            // its channel disconnects: it cannot have panicked.
            let _ = thread.join();
        }
    }
}

/// A helper's whole life: run each job it receives until the channel
/// disconnects.
fn helper_loop(jobs: &Receiver<Arc<dyn Drain + '_>>, replies: &SyncSender<Reply>) {
    while let Some(job) = wait(jobs) {
        let done = panic::catch_unwind(AssertUnwindSafe(|| job.drain()));
        // Release the job (and every buffer handle it owns) before the
        // caller learns it is done.
        drop(job);
        if replies.send(done).is_err() {
            return;
        }
    }
}

/// Receives from `rx`: spins for [`SPIN_POLLS`] polls, then parks. `None`
/// once the sender is gone.
fn wait<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..SPIN_POLLS {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// An `f64` array that the chunks of a pooled pass write in disjoint index
/// ranges while other threads read it.
///
/// Each value sits in an `AtomicU64` accessed with relaxed ordering — a
/// plain load or store on every target this workspace builds for — and the
/// pool's job and reply messages order a pass's writes before the next
/// reader. `Clone` copies the values; [`alias`](Self::alias) shares them
/// (the handle a job owns).
#[derive(Default)]
pub(crate) struct SharedF64(Arc<[F64Cell]>);

/// One value of a [`SharedF64`].
#[derive(Default)]
pub(crate) struct F64Cell(AtomicU64);

impl F64Cell {
    /// The value.
    #[inline]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Sets the value.
    #[inline]
    pub(crate) fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

impl SharedF64 {
    /// `n` zeros.
    pub(crate) fn zeros(n: usize) -> SharedF64 {
        SharedF64((0..n).map(|_| F64Cell::default()).collect())
    }

    /// The values at `range`, for loops that walk them in step.
    #[inline]
    pub(crate) fn cells(&self, range: Range<usize>) -> &[F64Cell] {
        &self.0[range]
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The value at `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> f64 {
        self.0[i].get()
    }

    /// Sets the value at `i`.
    #[inline]
    pub(crate) fn set(&self, i: usize, v: f64) {
        self.0[i].set(v);
    }

    /// Resizes to `n` values, all zero (reallocates only on a length
    /// change, or when a job still holds an alias).
    pub(crate) fn reset(&mut self, n: usize) {
        if self.len() == n && Arc::get_mut(&mut self.0).is_some() {
            self.fill(0.0);
        } else {
            *self = SharedF64::zeros(n);
        }
    }

    /// Sets every value to `v`.
    pub(crate) fn fill(&self, v: f64) {
        for a in self.0.iter() {
            a.set(v);
        }
    }

    /// Copies `src` in (lengths must match).
    pub(crate) fn copy_from(&self, src: &[f64]) {
        assert_eq!(src.len(), self.len(), "shared array length");
        for (a, &v) in self.0.iter().zip(src) {
            a.set(v);
        }
    }

    /// The values, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().map(F64Cell::get)
    }

    /// A second handle on the same values.
    pub(crate) fn alias(&self) -> SharedF64 {
        SharedF64(Arc::clone(&self.0))
    }
}

impl Clone for SharedF64 {
    fn clone(&self) -> Self {
        SharedF64(
            self.iter()
                .map(|v| F64Cell(AtomicU64::new(v.to_bits())))
                .collect(),
        )
    }

    fn clone_from(&mut self, src: &Self) {
        if self.len() == src.len() && Arc::get_mut(&mut self.0).is_some() {
            for (a, b) in self.0.iter().zip(src.0.iter()) {
                a.set(b.get());
            }
        } else {
            *self = src.clone();
        }
    }
}

impl fmt::Debug for SharedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Read access to a state vector's node voltages by KCL row, whether the
/// caller's own slice or a pool's shared copy.
pub(crate) trait Volts {
    /// The value at row `r`.
    fn at(&self, r: usize) -> f64;
}

impl Volts for [f64] {
    #[inline]
    fn at(&self, r: usize) -> f64 {
        self[r]
    }
}

impl Volts for SharedF64 {
    #[inline]
    fn at(&self, r: usize) -> f64 {
        self.get(r)
    }
}

/// Splits `0..n` into `chunks` contiguous ranges of near-equal length,
/// returned as `chunks + 1` bounds.
fn even_bounds(n: usize, chunks: usize) -> Vec<usize> {
    (0..=chunks).map(|k| n * k / chunks).collect()
}

/// Splits the transistors `0..n` into `chunks` contiguous ranges of
/// near-equal length whose bounds never fall inside a latency partition
/// (between its lowest and highest device), returned as `chunks + 1`
/// bounds. A chunk may be empty.
fn device_bounds(circuit: &Circuit, chunks: usize) -> Vec<usize> {
    let n = circuit.transistors.len();
    // `inside[b] > 0`: some partition has devices on both sides of bound b.
    let mut inside = vec![0i64; n + 2];
    for p in circuit.latency_partitions() {
        if let (Some(&lo), Some(&hi)) = (p.devices.iter().min(), p.devices.iter().max()) {
            inside[lo + 1] += 1;
            inside[hi + 1] -= 1;
        }
    }
    let mut depth = 0;
    let cuttable: Vec<bool> = inside[..=n]
        .iter()
        .map(|&d| {
            depth += d;
            depth == 0
        })
        .collect();
    let mut bounds = even_bounds(n, chunks);
    for b in &mut bounds {
        while !cuttable[*b] {
            *b += 1;
        }
    }
    bounds
}

/// The capacitor-table branch bounds matching transistor bounds `devices`:
/// chunk `k` holds its transistors' branches, chunk 0 also the explicit
/// capacitors before them (the table's layout, `Circuit::cap_branches`).
fn branch_bounds(circuit: &Circuit, devices: &[usize]) -> Vec<usize> {
    let mut first = Vec::with_capacity(circuit.transistors.len() + 1);
    let mut b = circuit.capacitors.len();
    first.push(b);
    for m in &circuit.transistors {
        b += m.cap_terminals().iter().filter(|(a, b)| a != b).count();
        first.push(b);
    }
    let mut bounds: Vec<usize> = devices.iter().map(|&d| first[d]).collect();
    bounds[0] = 0;
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `f` with a pool of `helpers` helpers for `n_x` unknowns.
    fn with_pool(helpers: usize, n_x: usize, f: impl FnOnce(&Pool<'_>)) {
        std::thread::scope(|s| {
            let (pool, _helpers) = Pool::start(s, helpers, &Circuit::new(), n_x);
            // Rebound after `_helpers`, so dropped before it.
            let pool = pool;
            f(&pool);
        });
    }

    #[test]
    fn every_chunk_runs_once_at_any_helper_count() {
        for helpers in [1, 2, 7] {
            with_pool(helpers, 4, |pool| {
                for chunks in [0, 1, 3, 64] {
                    let out = Arc::new(Mutex::new(vec![0u32; chunks]));
                    let o = Arc::clone(&out);
                    pool.run(chunks, move |k| o.lock().unwrap()[k] += 1);
                    assert_eq!(*out.lock().unwrap(), vec![1; chunks]);
                }
            });
        }
    }

    #[test]
    fn shared_x_reaches_helpers_and_handles_come_back() {
        with_pool(2, 3, |pool| {
            let sums = SharedF64::zeros(8);
            for round in 0..3 {
                let x = [1.0, 2.0, round as f64];
                let xs = pool.share_x(&x);
                let out = sums.alias();
                pool.run(8, move |k| {
                    out.set(k, xs.get(0) + xs.get(1) + xs.get(2) * k as f64)
                });
                let want: Vec<f64> = (0..8).map(|k| 3.0 + (round * k) as f64).collect();
                assert_eq!(sums.iter().collect::<Vec<_>>(), want);
            }
            // Every job dropped its handles: the copy is the caller's again.
            let mut sums = sums;
            assert!(Arc::get_mut(&mut sums.0).is_some());
        });
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller() {
        with_pool(2, 1, |pool| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(16, |k| assert!(k != 11, "chunk {k} failed"));
            }));
            let payload = caught.expect_err("the chunk's panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(msg, "chunk 11 failed");
            // The pool survives a caught panic: the next job runs.
            let n = Arc::new(AtomicUsize::new(0));
            let m = Arc::clone(&n);
            pool.run(5, move |_| {
                m.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), 5);
        });
    }

    #[test]
    fn chunk_bounds_never_cut_a_partition() {
        use crate::latency::CellPartition;
        let mut c = Circuit::new();
        let a = c.node("a");
        let model = Arc::new(tfet_devices::NTfet::nominal());
        for _ in 0..10 {
            c.transistor("M", model.clone(), a, a, Circuit::GND, 0.1);
        }
        // Devices 2..=6 form one partition, listed out of order; the even
        // bounds 0, 3, 6, 10 fall inside it.
        c.set_latency_partitions(vec![CellPartition {
            devices: vec![6, 2, 4],
            ..CellPartition::default()
        }]);
        assert_eq!(even_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(device_bounds(&c, 3), vec![0, 7, 7, 10]);
        // Each transistor with drain = gate = `a` and source at ground has
        // gs and db branches only.
        assert_eq!(branch_bounds(&c, &[0, 7, 7, 10]), vec![0, 14, 14, 20]);
    }

    #[test]
    fn shared_arrays_clone_deep_and_alias_shallow() {
        let a = SharedF64::zeros(3);
        a.copy_from(&[1.0, -0.0, 3.5]);
        let deep = a.clone();
        let shallow = a.alias();
        a.set(0, 9.0);
        assert_eq!(deep.get(0), 1.0);
        assert_eq!(shallow.get(0), 9.0);
        assert!(deep.get(1).is_sign_negative(), "bits kept");
        let mut b = SharedF64::default();
        b.clone_from(&deep);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1.0, -0.0, 3.5]);
        b.reset(2);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0.0, 0.0]);
    }
}
