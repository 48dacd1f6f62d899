//! The one way `spsc.rs` reaches its synchronization: its atomics, `Arc`
//! and `Mutex`, the slot cells, and the spin / yield / sleep of its backoff.
//!
//! A normal build re-exports std. The two wrappers only hand a slot's raw
//! pointer to the caller (which dereferences it where its safety argument
//! is written) and name the one reason a lock cannot fail, so the rings
//! compile to the code they would over std directly. A `cfg(test)` build
//! swaps in [`model`]'s types under the same names: outside a model
//! execution they fall through to std, so every other unit test runs as
//! before; inside one every operation is a step of a deterministic
//! scheduler that walks the rings' bounded interleavings (`docs/TESTING.md`,
//! "Model checking the SPSC rings").

pub(crate) use std::sync::atomic::Ordering;

#[cfg(not(test))]
pub(crate) use std_only::*;

/// Why taking a [`Mutex`] cannot fail: the lane mailbox is its only user,
/// and each of its critical sections is one `Vec` push, append or clear,
/// none of which can panic with the lock held.
const NEVER_POISONED: &str = "a lane-mailbox critical section panicked";

#[cfg(not(test))]
mod std_only {
    pub(crate) use std::hint::spin_loop;
    pub(crate) use std::sync::{atomic::AtomicBool, atomic::AtomicUsize, Arc};
    pub(crate) use std::thread::{sleep, yield_now};

    /// `std::cell::UnsafeCell`, reached through closures that receive the
    /// raw pointer (the model tracks each access there).
    pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub(crate) fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        #[inline]
        pub(crate) fn with<R>(&self, read: impl FnOnce(*const T) -> R) -> R {
            read(self.0.get())
        }

        #[inline]
        pub(crate) fn with_mut<R>(&self, write: impl FnOnce(*mut T) -> R) -> R {
            write(self.0.get())
        }

        #[inline]
        pub(crate) fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }
    }

    /// `std::sync::Mutex` whose `lock` returns the guard.
    pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub(crate) fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().expect(super::NEVER_POISONED)
        }
    }
}

#[cfg(test)]
pub(crate) use model::{
    sleep, spin_loop, yield_now, Arc, AtomicBool, AtomicUsize, Mutex, UnsafeCell,
};

/// A deterministic scheduler for the rings' protocol, in the style of loom
/// and CHESS, written against std.
///
/// [`explore`] runs a test body as model thread 0, which may [`spawn`] up
/// to two more. Model threads are OS threads that run strictly one at a
/// time: each atomic operation, lock, spawn, join and backoff step is a
/// scheduling point at which the scheduler picks who runs next. Executions
/// are repeated, depth first, until every schedule with at most `bound`
/// preemptions (switching away from a thread that could have continued)
/// has run. Switching at a yield, a join or a thread's end is free.
///
/// Every execution is sequentially consistent. On top of it the model keeps
/// a vector clock per thread: an `Acquire` load (or read-modify-write)
/// joins the clock the location's last `Release` store, or release
/// sequence of read-modify-writes, left there; `Mutex` unlock / lock,
/// spawn / join and the last `Arc` drop are edges too. A slot access that
/// is not ordered after the previous conflicting access is a data race.
/// What the model cannot see is a stale value: a `Relaxed` load always
/// returns the latest store here.
///
/// A backoff step (`spin_loop`, `yield_now`, `sleep`) lets another thread
/// run, and the yielding thread may run again only once another thread has
/// written something; when no thread can run, the execution is a livelock
/// (or a deadlock). A failure aborts the execution and [`explore`] panics
/// with the failing schedule, one step a line.
#[cfg(test)]
pub(crate) mod model {
    use std::cell::RefCell;
    use std::fmt::{self, Write as _};
    use std::ops::{Deref, DerefMut};
    use std::panic::{self, AssertUnwindSafe, Location};
    use std::sync::atomic::Ordering;
    use std::sync::{Arc as StdArc, Condvar, Mutex as StdMutex, MutexGuard as StdGuard};
    use std::sync::{PoisonError, TryLockError};
    use std::thread;
    use std::time::Duration;

    use super::NEVER_POISONED;

    /// Model threads per execution: a receiver and two senders.
    const MAX_THREADS: usize = 3;
    /// Steps after which an execution counts as running away.
    const MAX_STEPS: usize = 10_000;

    type Clock = [u32; MAX_THREADS];

    fn join_clock(into: &mut Clock, from: &Clock) {
        for (mine, theirs) in into.iter_mut().zip(from) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// The model's own locks are only ever held by the one running thread,
    /// and a failure unwinds through them on purpose.
    fn lock<T>(mutex: &StdMutex<T>) -> StdGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The panic payload that unwinds a model thread when another one
    /// failed; it is not a failure of its own.
    struct Aborted;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Run {
        Ready,
        /// At a backoff step: runnable again once another thread writes.
        Yielded,
        Joining(usize),
        Done,
    }

    struct ModelThread {
        run: Run,
        clock: Clock,
        /// `State::writes` when it last resumed from a yield, plus its own
        /// writes since: a yielded thread may run again once `writes`
        /// passes it, i.e. once another thread wrote during or after the
        /// checks that led it to yield.
        seen: u64,
        /// Whether it stepped since its last yield (a yield right after a
        /// yield changes nothing, so one backoff step is one yield).
        acted: bool,
    }

    /// One line of a schedule.
    struct Step {
        thread: usize,
        what: &'static str,
        order: Option<Ordering>,
        at: &'static Location<'static>,
    }

    impl fmt::Display for Step {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "t{} {}", self.thread, self.what)?;
            if let Some(order) = self.order {
                write!(f, "({order:?})")?;
            }
            write!(f, " at {}:{}", self.at.file(), self.at.line())
        }
    }

    /// A scheduling decision with more than one option.
    struct Branch {
        options: Vec<usize>,
        chosen: usize,
    }

    struct State {
        threads: Vec<ModelThread>,
        active: usize,
        bound: usize,
        preemptions: usize,
        /// Stores, read-modify-writes, locks, slot writes, spawns and ends.
        writes: u64,
        /// The branches of this execution: replayed up to the previous
        /// execution's last untried one, then extended.
        path: Vec<Branch>,
        depth: usize,
        trace: Vec<Step>,
        failure: Option<String>,
        finished: bool,
        os_threads: Vec<thread::JoinHandle<()>>,
    }

    impl State {
        fn enabled(&self, t: usize) -> bool {
            match self.threads[t].run {
                Run::Ready => true,
                Run::Yielded => self.writes > self.threads[t].seen,
                Run::Joining(child) => self.threads[child].run == Run::Done,
                Run::Done => false,
            }
        }

        /// Picks the thread that runs after `me`'s scheduling point.
        fn pick(&mut self, me: usize) -> Result<usize, String> {
            let enabled: Vec<usize> = (0..self.threads.len())
                .filter(|&t| self.enabled(t))
                .collect();
            let ready = self.threads[me].run == Run::Ready;
            let others: Vec<usize> = enabled.iter().copied().filter(|&t| t != me).collect();
            let options = if ready {
                // Staying is free; switching away spends a preemption.
                let mut options = vec![me];
                if self.preemptions < self.bound {
                    options.extend(others);
                }
                options
            } else if others.is_empty() {
                enabled
            } else {
                others
            };
            if options.is_empty() {
                return Err(self.stuck());
            }
            let chosen = if options.len() == 1 {
                options[0]
            } else {
                let depth = self.depth;
                self.depth += 1;
                match self.path.get(depth) {
                    Some(branch) if branch.options != options => {
                        return Err(format!(
                            "nondeterministic execution: branch {depth} offers {options:?}, \
                             an earlier execution {:?}",
                            branch.options
                        ))
                    }
                    Some(branch) => branch.options[branch.chosen],
                    None => {
                        self.path.push(Branch { options, chosen: 0 });
                        self.path[depth].options[0]
                    }
                }
            };
            if ready && chosen != me {
                self.preemptions += 1;
            }
            Ok(chosen)
        }

        fn stuck(&self) -> String {
            let threads: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .map(|(t, thread)| format!("t{t} {:?}", thread.run))
                .collect();
            let kind = if self.threads.iter().any(|t| t.run == Run::Yielded) {
                "livelock: all threads yielding, no progress"
            } else {
                "deadlock"
            };
            format!("{kind} ({})", threads.join(", "))
        }

        fn wrote(&mut self, me: usize) {
            self.writes += 1;
            self.threads[me].seen += 1;
        }

        fn fail(&mut self, message: String) {
            if self.failure.is_none() {
                let mut report = format!("{message}\nschedule ({} steps):", self.trace.len());
                for (i, step) in self.trace.iter().enumerate() {
                    let _ = write!(report, "\n  {i:>4}  {step}");
                }
                self.failure = Some(report);
            }
        }
    }

    /// One execution: its state, and a condition variable per model thread
    /// (woken when the turn passes to it) plus the driver's.
    struct Exec {
        state: StdMutex<State>,
        turn: [Condvar; MAX_THREADS],
        done: Condvar,
    }

    type Guard<'a> = StdGuard<'a, State>;

    impl Exec {
        /// Records `message` with the schedule, wakes everyone, and unwinds
        /// the calling model thread.
        fn abort(&self, mut st: Guard<'_>, message: String) -> ! {
            st.fail(message);
            self.turn.iter().for_each(Condvar::notify_all);
            self.done.notify_all();
            drop(st);
            panic::resume_unwind(Box::new(Aborted))
        }

        /// Leaves `me` in `run` at a scheduling point, runs whoever the
        /// scheduler picks until the turn comes back, and returns with `me`
        /// ready again.
        fn switch<'a>(&'a self, mut st: Guard<'a>, me: usize, run: Run) -> Guard<'a> {
            st.threads[me].run = run;
            match st.pick(me) {
                Err(stuck) => self.abort(st, stuck),
                Ok(next) if next != me => {
                    st.active = next;
                    self.turn[next].notify_one();
                }
                Ok(_) => {}
            }
            st = self.wait_turn(st, me);
            st.threads[me].run = Run::Ready;
            st
        }

        fn wait_turn<'a>(&'a self, mut st: Guard<'a>, me: usize) -> Guard<'a> {
            while st.active != me && st.failure.is_none() {
                st = self.turn[me]
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.failure.is_some() {
                drop(st);
                panic::resume_unwind(Box::new(Aborted));
            }
            st
        }

        /// One operation of `me`: a scheduling point, then `op` on the
        /// state. A thread that unwinds (its own panic, or another's
        /// failure) runs its remaining operations straight through.
        fn step<R>(&self, me: usize, step: Step, op: impl FnOnce(&mut State) -> R) -> R {
            let mut st = lock(&self.state);
            if thread::panicking() {
                return op(&mut st);
            }
            if st.failure.is_some() {
                drop(st);
                panic::resume_unwind(Box::new(Aborted));
            }
            st = self.switch(st, me, Run::Ready);
            st.trace.push(step);
            if st.trace.len() > MAX_STEPS {
                self.abort(st, format!("no end after {MAX_STEPS} steps"));
            }
            let result = op(&mut st);
            let thread = &mut st.threads[me];
            thread.clock[me] += 1;
            thread.acted = true;
            result
        }

        fn finish(&self, me: usize, outcome: thread::Result<()>) {
            let mut st = lock(&self.state);
            if let Err(payload) = outcome {
                if !payload.is::<Aborted>() {
                    let message = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("a non-string payload");
                    st.fail(format!("t{me} panicked: {message}"));
                    self.turn.iter().for_each(Condvar::notify_all);
                    self.done.notify_all();
                }
                return;
            }
            if st.failure.is_some() {
                return;
            }
            st.threads[me].run = Run::Done;
            st.writes += 1;
            if st.threads.iter().all(|t| t.run == Run::Done) {
                st.finished = true;
                self.done.notify_all();
                return;
            }
            match st.pick(me) {
                Ok(next) => {
                    st.active = next;
                    self.turn[next].notify_one();
                }
                Err(stuck) => {
                    st.fail(stuck);
                    self.turn.iter().for_each(Condvar::notify_all);
                    self.done.notify_all();
                }
            }
        }
    }

    thread_local! {
        static CURRENT: RefCell<Option<(StdArc<Exec>, usize)>> = const { RefCell::new(None) };
    }

    /// The execution the calling thread is a model thread of, if any.
    fn current() -> Option<(StdArc<Exec>, usize)> {
        CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
    }

    /// Runs `edit` on the calling model thread's clock, then ticks it; a
    /// no-op outside an execution or once it failed.
    fn on_clock(edit: impl FnOnce(&mut State, usize)) {
        if let Some((exec, me)) = current() {
            let mut st = lock(&exec.state);
            if st.failure.is_none() {
                edit(&mut st, me);
                st.threads[me].clock[me] += 1;
            }
        }
    }

    fn start(
        exec: StdArc<Exec>,
        me: usize,
        body: impl FnOnce() + Send + 'static,
    ) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&exec), me)));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                drop(exec.wait_turn(lock(&exec.state), me));
                body();
            }));
            exec.finish(me, outcome);
            CURRENT.with(|c| *c.borrow_mut() = None);
        })
    }

    /// Runs `body` as model thread 0 under every schedule with at most
    /// `bound` preemptions and returns how many executions that took.
    /// Explorations run one at a time, so at most `MAX_THREADS` model
    /// threads and the caller are alive at once.
    ///
    /// # Panics
    /// Panics with the failing schedule when an execution panics, races on
    /// a slot, livelocks, deadlocks or runs away.
    pub(crate) fn explore(bound: usize, body: impl Fn() + Send + Sync + 'static) -> usize {
        static ONE_AT_A_TIME: StdMutex<()> = StdMutex::new(());
        let _serial = lock(&ONE_AT_A_TIME);
        let body = StdArc::new(body);
        let mut path: Vec<Branch> = Vec::new();
        let mut execution = 0;
        loop {
            execution += 1;
            let exec = StdArc::new(Exec {
                state: StdMutex::new(State {
                    threads: vec![ModelThread {
                        run: Run::Ready,
                        clock: [1, 0, 0],
                        seen: 0,
                        acted: false,
                    }],
                    active: 0,
                    bound,
                    preemptions: 0,
                    writes: 0,
                    path,
                    depth: 0,
                    trace: Vec::new(),
                    failure: None,
                    finished: false,
                    os_threads: Vec::new(),
                }),
                turn: Default::default(),
                done: Condvar::new(),
            });
            let body = StdArc::clone(&body);
            let main = start(StdArc::clone(&exec), 0, move || body());
            let mut st = lock(&exec.state);
            while !st.finished && st.failure.is_none() {
                st = exec.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            let spawned = std::mem::take(&mut st.os_threads);
            drop(st);
            for os_thread in std::iter::once(main).chain(spawned) {
                os_thread
                    .join()
                    .expect("a model thread catches its own panics");
            }
            let mut st = lock(&exec.state);
            if let Some(failure) = st.failure.take() {
                panic!("model execution {execution} failed: {failure}");
            }
            assert_eq!(
                st.depth,
                st.path.len(),
                "nondeterministic execution: a replayed branch never came"
            );
            path = std::mem::take(&mut st.path);
            // Depth first: the deepest branch with an untried option moves
            // on to it, everything after it is explored afresh.
            while let Some(branch) = path.last_mut() {
                if branch.chosen + 1 < branch.options.len() {
                    branch.chosen += 1;
                    break;
                }
                path.pop();
            }
            if path.is_empty() {
                return execution;
            }
        }
    }

    /// A model thread's handle.
    pub(crate) struct JoinHandle<T> {
        thread: usize,
        result: StdArc<StdMutex<Option<T>>>,
    }

    /// Starts a model thread; only inside [`explore`].
    #[track_caller]
    pub(crate) fn spawn<T: Send + 'static>(
        body: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let at = Location::caller();
        let (exec, me) = current().expect("model::spawn runs inside model::explore");
        let step = Step {
            thread: me,
            what: "spawn",
            order: None,
            at,
        };
        let thread = exec.step(me, step, |st| {
            let id = st.threads.len();
            assert!(
                id < MAX_THREADS,
                "a model execution runs at most {MAX_THREADS} threads"
            );
            let mut clock = st.threads[me].clock;
            clock[id] = 1;
            let seen = st.writes;
            st.threads.push(ModelThread {
                run: Run::Ready,
                clock,
                seen,
                acted: false,
            });
            st.wrote(me);
            id
        });
        let result = StdArc::new(StdMutex::new(None));
        let slot = StdArc::clone(&result);
        let os_thread = start(StdArc::clone(&exec), thread, move || {
            *lock(&slot) = Some(body());
        });
        lock(&exec.state).os_threads.push(os_thread);
        JoinHandle { thread, result }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread's end and returns its result.
        #[track_caller]
        pub(crate) fn join(self) -> T {
            let at = Location::caller();
            let (exec, me) = current().expect("JoinHandle::join runs inside model::explore");
            let mut st = lock(&exec.state);
            st.trace.push(Step {
                thread: me,
                what: "join",
                order: None,
                at,
            });
            if st.threads[self.thread].run != Run::Done {
                st = exec.switch(st, me, Run::Joining(self.thread));
            }
            let child = st.threads[self.thread].clock;
            join_clock(&mut st.threads[me].clock, &child);
            drop(st);
            lock(&self.result)
                .take()
                .expect("a joined model thread left its result")
        }
    }

    /// One backoff step: lets another thread run (see the module docs).
    fn yield_at(at: &'static Location<'static>, outside: impl FnOnce()) {
        let Some((exec, me)) = current() else {
            return outside();
        };
        let mut st = lock(&exec.state);
        if thread::panicking() || st.failure.is_some() {
            drop(st);
            return thread::yield_now();
        }
        if !st.threads[me].acted {
            return;
        }
        st.threads[me].acted = false;
        st.trace.push(Step {
            thread: me,
            what: "yield",
            order: None,
            at,
        });
        st = exec.switch(st, me, Run::Yielded);
        st.threads[me].seen = st.writes;
    }

    #[track_caller]
    pub(crate) fn spin_loop() {
        yield_at(Location::caller(), std::hint::spin_loop);
    }

    #[track_caller]
    pub(crate) fn yield_now() {
        yield_at(Location::caller(), thread::yield_now);
    }

    #[track_caller]
    pub(crate) fn sleep(duration: Duration) {
        yield_at(Location::caller(), || thread::sleep(duration));
    }

    #[derive(Clone, Copy)]
    enum Access {
        Load,
        Store,
        Rmw,
    }

    /// One atomic operation as a step: `op` runs on the real atomic, and
    /// the clocks move as `order` says.
    #[track_caller]
    fn atomic<R>(
        released: &StdMutex<Clock>,
        access: Access,
        what: &'static str,
        order: Ordering,
        op: impl FnOnce() -> R,
    ) -> R {
        let at = Location::caller();
        let Some((exec, me)) = current() else {
            return op();
        };
        let step = Step {
            thread: me,
            what,
            order: Some(order),
            at,
        };
        exec.step(me, step, |st| {
            let result = op();
            let acquire = matches!(
                order,
                Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
            );
            let release = matches!(
                order,
                Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
            );
            let mut released = lock(released);
            let clock = &mut st.threads[me].clock;
            match access {
                Access::Load => {}
                // A store starts a new release sequence (an empty one when
                // Relaxed); a read-modify-write continues the current one.
                Access::Store => *released = if release { *clock } else { [0; MAX_THREADS] },
                Access::Rmw if release => join_clock(&mut released, clock),
                Access::Rmw => {}
            }
            if acquire && !matches!(access, Access::Store) {
                join_clock(clock, &released);
            }
            if !matches!(access, Access::Load) {
                st.wrote(me);
            }
            result
        })
    }

    pub(crate) struct AtomicUsize {
        value: std::sync::atomic::AtomicUsize,
        released: StdMutex<Clock>,
    }

    impl AtomicUsize {
        pub(crate) fn new(value: usize) -> Self {
            AtomicUsize {
                value: value.into(),
                released: StdMutex::new([0; MAX_THREADS]),
            }
        }

        #[track_caller]
        pub(crate) fn load(&self, order: Ordering) -> usize {
            atomic(&self.released, Access::Load, "load", order, || {
                self.value.load(order)
            })
        }

        #[track_caller]
        pub(crate) fn store(&self, value: usize, order: Ordering) {
            atomic(&self.released, Access::Store, "store", order, || {
                self.value.store(value, order)
            });
        }

        #[track_caller]
        pub(crate) fn fetch_add(&self, value: usize, order: Ordering) -> usize {
            atomic(&self.released, Access::Rmw, "fetch_add", order, || {
                self.value.fetch_add(value, order)
            })
        }

        #[track_caller]
        pub(crate) fn fetch_sub(&self, value: usize, order: Ordering) -> usize {
            atomic(&self.released, Access::Rmw, "fetch_sub", order, || {
                self.value.fetch_sub(value, order)
            })
        }

        pub(crate) fn get_mut(&mut self) -> &mut usize {
            self.value.get_mut()
        }
    }

    pub(crate) struct AtomicBool {
        value: std::sync::atomic::AtomicBool,
        released: StdMutex<Clock>,
    }

    impl AtomicBool {
        pub(crate) fn new(value: bool) -> Self {
            AtomicBool {
                value: value.into(),
                released: StdMutex::new([0; MAX_THREADS]),
            }
        }

        #[track_caller]
        pub(crate) fn load(&self, order: Ordering) -> bool {
            atomic(&self.released, Access::Load, "load", order, || {
                self.value.load(order)
            })
        }

        #[track_caller]
        pub(crate) fn store(&self, value: bool, order: Ordering) {
            atomic(&self.released, Access::Store, "store", order, || {
                self.value.store(value, order)
            });
        }
    }

    /// `std::sync::Arc` whose drops are release edges and whose last drop
    /// acquires them all before the value goes, as std's fences make it.
    pub(crate) struct Arc<T> {
        inner: StdArc<ArcInner<T>>,
    }

    struct ArcInner<T> {
        released: StdMutex<Clock>,
        value: T,
    }

    impl<T> Arc<T> {
        pub(crate) fn new(value: T) -> Self {
            Arc {
                inner: StdArc::new(ArcInner {
                    released: StdMutex::new([0; MAX_THREADS]),
                    value,
                }),
            }
        }
    }

    impl<T> Clone for Arc<T> {
        fn clone(&self) -> Self {
            Arc {
                inner: StdArc::clone(&self.inner),
            }
        }
    }

    impl<T> Deref for Arc<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.inner.value
        }
    }

    impl<T> Drop for Arc<T> {
        fn drop(&mut self) {
            on_clock(|st, me| join_clock(&mut lock(&self.inner.released), &st.threads[me].clock));
        }
    }

    impl<T> Drop for ArcInner<T> {
        fn drop(&mut self) {
            let released = *lock(&self.released);
            on_clock(|st, me| join_clock(&mut st.threads[me].clock, &released));
        }
    }

    /// `std::sync::Mutex` whose lock is a step; a thread that finds it held
    /// waits as at a backoff step.
    pub(crate) struct Mutex<T> {
        inner: StdMutex<T>,
        released: StdMutex<Clock>,
    }

    pub(crate) struct MutexGuard<'a, T> {
        guard: StdGuard<'a, T>,
        released: &'a StdMutex<Clock>,
    }

    impl<T> Mutex<T> {
        pub(crate) fn new(value: T) -> Self {
            Mutex {
                inner: StdMutex::new(value),
                released: StdMutex::new([0; MAX_THREADS]),
            }
        }

        #[track_caller]
        pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
            let at = Location::caller();
            loop {
                let Some((exec, me)) = current() else {
                    let guard = self.inner.lock().expect(NEVER_POISONED);
                    return MutexGuard {
                        guard,
                        released: &self.released,
                    };
                };
                let step = Step {
                    thread: me,
                    what: "Mutex::lock",
                    order: None,
                    at,
                };
                let taken = exec.step(me, step, |st| match self.inner.try_lock() {
                    Ok(guard) => {
                        join_clock(&mut st.threads[me].clock, &lock(&self.released));
                        st.wrote(me);
                        Some(guard)
                    }
                    Err(TryLockError::WouldBlock) => None,
                    Err(TryLockError::Poisoned(_)) => panic!("{NEVER_POISONED}"),
                });
                match taken {
                    Some(guard) => {
                        return MutexGuard {
                            guard,
                            released: &self.released,
                        }
                    }
                    None => yield_at(at, thread::yield_now),
                }
            }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            on_clock(|st, me| {
                *lock(self.released) = st.threads[me].clock;
                st.wrote(me);
            });
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    /// `std::cell::UnsafeCell` that checks each access against the last
    /// conflicting one: a write against the last write and every read since,
    /// a read against the last write.
    pub(crate) struct UnsafeCell<T> {
        value: std::cell::UnsafeCell<T>,
        accesses: StdMutex<CellAccesses>,
    }

    #[derive(Default)]
    struct CellAccesses {
        write: Option<CellAccess>,
        reads: [Option<CellAccess>; MAX_THREADS],
    }

    #[derive(Clone, Copy)]
    struct CellAccess {
        thread: usize,
        epoch: u32,
        at: &'static Location<'static>,
    }

    impl<T> UnsafeCell<T> {
        pub(crate) fn new(value: T) -> Self {
            UnsafeCell {
                value: std::cell::UnsafeCell::new(value),
                accesses: StdMutex::default(),
            }
        }

        #[track_caller]
        pub(crate) fn with<R>(&self, read: impl FnOnce(*const T) -> R) -> R {
            self.access(false, Location::caller());
            read(self.value.get())
        }

        #[track_caller]
        pub(crate) fn with_mut<R>(&self, write: impl FnOnce(*mut T) -> R) -> R {
            self.access(true, Location::caller());
            write(self.value.get())
        }

        #[track_caller]
        pub(crate) fn get_mut(&mut self) -> &mut T {
            self.access(true, Location::caller());
            self.value.get_mut()
        }

        fn access(&self, write: bool, at: &'static Location<'static>) {
            let Some((exec, me)) = current() else {
                return;
            };
            let mut st = lock(&exec.state);
            if thread::panicking() || st.failure.is_some() {
                return;
            }
            let clock = st.threads[me].clock;
            let mut accesses = lock(&self.accesses);
            let last_write = accesses.write.map(|a| (a, "write"));
            let reads = accesses.reads.iter().flatten().filter(|_| write);
            let unordered = last_write
                .into_iter()
                .chain(reads.map(|&a| (a, "read")))
                .find(|(a, _)| a.thread != me && a.epoch > clock[a.thread]);
            if let Some((racer, kind)) = unordered {
                drop(accesses);
                let (file, line) = (at.file(), at.line());
                let (racer_file, racer_line) = (racer.at.file(), racer.at.line());
                let access = if write { "write" } else { "read" };
                exec.abort(
                    st,
                    format!(
                        "data race: the {access} at {file}:{line} by t{me} is not ordered \
                         after the {kind} at {racer_file}:{racer_line} by t{}",
                        racer.thread
                    ),
                );
            }
            let now = CellAccess {
                thread: me,
                epoch: clock[me],
                at,
            };
            if write {
                *accesses = CellAccesses {
                    write: Some(now),
                    ..CellAccesses::default()
                };
                st.wrote(me);
            } else {
                accesses.reads[me] = Some(now);
            }
        }
    }

    mod tests {
        use super::*;
        use std::collections::BTreeSet;

        /// Two increments that load, then store: some schedule loses one.
        #[test]
        fn explores_the_lost_update() {
            let outcomes = StdArc::new(StdMutex::new(BTreeSet::new()));
            let seen = StdArc::clone(&outcomes);
            let executions = explore(1, move || {
                let counter = Arc::new(AtomicUsize::new(0));
                let other = Arc::clone(&counter);
                let increment = |c: &AtomicUsize| {
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                };
                let child = spawn(move || increment(&other));
                increment(&counter);
                child.join();
                lock(&seen).insert(counter.load(Ordering::Relaxed));
            });
            assert_eq!(*lock(&outcomes), BTreeSet::from([1, 2]));
            assert!(executions > 2, "{executions}");
        }

        /// Waiting on a flag nobody sets is a livelock, not a hang.
        #[test]
        fn a_wait_nobody_ends_is_a_livelock() {
            let failure = panic::catch_unwind(|| {
                explore(2, || {
                    let flag = AtomicBool::new(false);
                    while !flag.load(Ordering::Acquire) {
                        yield_now();
                    }
                })
            })
            .expect_err("the model fails");
            let failure = failure.downcast_ref::<String>().expect("a message");
            assert!(failure.contains("livelock"), "{failure}");
        }
    }
}
