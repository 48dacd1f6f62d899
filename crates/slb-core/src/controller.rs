//! The closed-loop elasticity controller (ROADMAP item 3).
//!
//! Nasir et al. pick the number of choices `d` *offline* from the analytical
//! bound; this module closes the loop at runtime. Each source runs one
//! [`ElasticityController`] stepped at every window boundary with two purely
//! local signals:
//!
//! 1. the per-window per-worker counts of the window that just closed
//!    (via [`crate::PerWindowLoads`], zero-allocation in the hot loop), and
//! 2. the head-frequency estimates of its own partitioner's SpaceSaving
//!    tracker (via [`crate::Partitioner::head_snapshot`]).
//!
//! From these it makes two kinds of decisions, in a fixed order:
//!
//! * **Worker activation/deactivation** — scale out when the hottest worker
//!   absorbed more than `worker_capacity` tuples in the closing window;
//!   scale in when the whole window would fit comfortably (at
//!   `scale_in_occupancy`) on `step` fewer workers. Both require the
//!   condition to hold for `patience` consecutive windows and respect a
//!   `cooldown` after any action — the hysteresis that keeps the controller
//!   from flapping. Scale-out *suppresses* scale-in (not merely outranks
//!   it), which makes the action sequence on a constant signal monotone:
//!   the controller can never oscillate between the two (proven by
//!   `controller_props`).
//! * **Online `d` re-solving** — when the worker count did *not* change,
//!   re-run [`find_optimal_choices`] on the current head snapshot and, if
//!   the optimum moved, retune the partitioner via `apply_choices`. When
//!   the worker count *did* change, the caller builds a fresh partitioner
//!   ([`crate::build_partitioner`]) and the head must be re-learned first,
//!   so the retune step is skipped for that window.
//!
//! Determinism: both signals are pure functions of the source's own stream
//! prefix, so the whole decision sequence is too — rerun-, batch-size-, and
//! backend-invariant, replayable analytically by the simulator and replayed
//! bit-identically by the engine's recovery path.

use crate::dchoices::{find_optimal_choices, ChoicesDecision};

/// Tuning knobs for the elasticity controller. Validated by [`Self::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// The controller never deactivates below this many workers.
    pub min_workers: usize,
    /// The controller never activates beyond this many workers (the spawned
    /// worker universe must cover it).
    pub max_workers: usize,
    /// Tuples one worker is expected to absorb per window per source: the
    /// scale-out trigger is a per-window worker count above this.
    pub worker_capacity: u64,
    /// Scale in only if the whole window fits at this occupancy on `step`
    /// fewer workers (0 < occupancy ≤ 1). Lower is more conservative.
    pub scale_in_occupancy: f64,
    /// Consecutive windows a condition must hold before acting.
    pub patience: u32,
    /// Windows after any scale action during which no further scale action
    /// fires (the head re-learns and the signal settles first).
    pub cooldown: u32,
    /// Workers added or removed per scale action.
    pub step: usize,
    /// Imbalance tolerance ε handed to the D-Choices solver when retuning.
    pub epsilon: f64,
}

impl ControllerConfig {
    /// A controller for worker counts in `[min_workers, max_workers]` with a
    /// per-window per-worker capacity, and conservative defaults for the
    /// hysteresis knobs: 50% scale-in occupancy, patience 2, cooldown 2,
    /// step 1, ε = 10⁻⁴.
    pub fn new(min_workers: usize, max_workers: usize, worker_capacity: u64) -> Self {
        let cfg = Self {
            min_workers,
            max_workers,
            worker_capacity,
            scale_in_occupancy: 0.5,
            patience: 2,
            cooldown: 2,
            step: 1,
            epsilon: 1e-4,
        };
        cfg.validate();
        cfg
    }

    /// Sets the patience (consecutive windows before acting).
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience;
        self.validate();
        self
    }

    /// Sets the cooldown (quiet windows after an action).
    pub fn with_cooldown(mut self, cooldown: u32) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Sets the scale step (workers per action).
    pub fn with_step(mut self, step: usize) -> Self {
        self.step = step;
        self.validate();
        self
    }

    /// Sets the solver tolerance ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self.validate();
        self
    }

    /// Checks that every knob is in range; the error names the first one
    /// that is not. This is what a config arriving from outside the program
    /// (a cluster spec) is held to.
    pub fn check(&self) -> Result<(), String> {
        fn ensure(ok: bool, message: impl Into<String>) -> Result<(), String> {
            ok.then_some(()).ok_or_else(|| message.into())
        }
        ensure(self.min_workers >= 1, "min_workers must be at least 1")?;
        ensure(
            self.max_workers >= self.min_workers,
            format!(
                "max_workers {} below min_workers {}",
                self.max_workers, self.min_workers
            ),
        )?;
        ensure(self.worker_capacity > 0, "worker_capacity must be positive")?;
        ensure(
            self.scale_in_occupancy > 0.0 && self.scale_in_occupancy <= 1.0,
            format!(
                "scale_in_occupancy must be in (0, 1], got {}",
                self.scale_in_occupancy
            ),
        )?;
        ensure(self.patience >= 1, "patience must be at least 1")?;
        ensure(self.step >= 1, "step must be at least 1")?;
        ensure(self.epsilon > 0.0, "epsilon must be positive")
    }

    /// Panics if any knob is out of range (see [`Self::check`]).
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }

    /// Clamps a phase-advisory worker count into the controller's bounds.
    pub fn clamp_workers(&self, workers: usize) -> usize {
        workers.clamp(self.min_workers, self.max_workers)
    }
}

/// What a controller decision did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerAction {
    /// Activated `step` more workers (a fresh partitioner followed).
    ScaleOut,
    /// Deactivated `step` workers (a fresh partitioner followed).
    ScaleIn,
    /// Re-solved `d` and the optimum moved (`apply_choices` followed).
    Retune,
}

/// One logged controller decision. Only *changes* are logged — windows where
/// the controller held steady produce no event, so logs stay small and the
/// cross-backend equality check (`controller_differential`) is sharp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerEvent {
    /// Source that made the decision (each source decides independently).
    pub source: u32,
    /// 1-based count of windows this source's controller had observed when
    /// it acted (its own deterministic clock).
    pub window: u64,
    /// What changed.
    pub action: ControllerAction,
    /// Active workers *after* the action.
    pub workers: u32,
    /// Head choices after the action: `d` for `UseD(d)`, `0` for the
    /// W-Choices fallback (see [`encode_decision`]).
    pub d: u32,
}

/// Encodes a solver decision as a single u32 for event logs and the wire:
/// `SwitchToW` ↦ 0, `UseD(d)` ↦ `d` (always ≥ 2, so the encoding is
/// unambiguous).
pub fn encode_decision(decision: ChoicesDecision) -> u32 {
    match decision {
        ChoicesDecision::SwitchToW => 0,
        ChoicesDecision::UseD(d) => d as u32,
    }
}

/// Inverse of [`encode_decision`].
pub fn decode_decision(d: u32) -> ChoicesDecision {
    if d == 0 {
        ChoicesDecision::SwitchToW
    } else {
        ChoicesDecision::UseD(d as usize)
    }
}

/// Controller decisions merged across sources, attached to `EngineResult`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControllerMetrics {
    /// Whether a controller ran at all (distinguishes "ran, no events" from
    /// "not enabled").
    pub enabled: bool,
    /// All decisions, canonically sorted by `(source, window)`.
    pub events: Vec<ControllerEvent>,
}

impl ControllerMetrics {
    /// Merges per-source event logs into the canonical order.
    pub fn merged(mut events: Vec<ControllerEvent>) -> Self {
        events.sort_by_key(|e| (e.source, e.window));
        Self {
            enabled: true,
            events,
        }
    }
}

/// The per-source controller state machine. See the module docs for the
/// policy; [`Self::observe_window`] and [`Self::retune`] are the two steps,
/// called in that order at each window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticityController {
    cfg: ControllerConfig,
    source: u32,
    active: usize,
    decision: ChoicesDecision,
    window: u64,
    out_streak: u32,
    in_streak: u32,
    cooldown_left: u32,
    events: Vec<ControllerEvent>,
}

impl ElasticityController {
    /// Creates a controller for `source`, starting from the (clamped)
    /// advisory worker count. The initial `d` matches a freshly built
    /// partitioner's default (`UseD(2)`).
    pub fn new(cfg: ControllerConfig, source: u32, initial_workers: usize) -> Self {
        cfg.validate();
        let active = cfg.clamp_workers(initial_workers);
        Self {
            cfg,
            source,
            active,
            decision: ChoicesDecision::UseD(2),
            window: 0,
            out_streak: 0,
            in_streak: 0,
            cooldown_left: 0,
            events: Vec::new(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Active workers as decided by the controller.
    pub fn active_workers(&self) -> usize {
        self.active
    }

    /// The controller's current view of the solver decision.
    pub fn current_decision(&self) -> ChoicesDecision {
        self.decision
    }

    /// The decision log so far (only changes are logged).
    pub fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// Drains the decision log (used at end of run).
    pub fn take_events(&mut self) -> Vec<ControllerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Step 1 at a window boundary: the activation policy. `window_total`
    /// and `window_max` are the closing window's total tuples and hottest
    /// worker's tuples for *this source*. Returns `Some(new_active)` when
    /// the worker count changed — the caller must build a fresh partitioner
    /// for the new count and skip [`Self::retune`] for this boundary.
    pub fn observe_window(&mut self, window_total: u64, window_max: u64) -> Option<usize> {
        self.window += 1;
        let scale_out_wanted = window_max > self.cfg.worker_capacity;
        // Scale-out pressure *suppresses* scale-in entirely (it does not
        // merely win ties): on a constant signal the controller therefore
        // only ever moves in one direction — the non-oscillation guarantee.
        if scale_out_wanted {
            self.in_streak = 0;
            self.out_streak += 1;
            if self.ready(self.out_streak) && self.active < self.cfg.max_workers {
                let new = (self.active + self.cfg.step).min(self.cfg.max_workers);
                return Some(self.scale_to(new, ControllerAction::ScaleOut));
            }
        } else {
            self.out_streak = 0;
            let target = self
                .active
                .saturating_sub(self.cfg.step)
                .max(self.cfg.min_workers);
            let fits = target < self.active
                && window_total as f64
                    <= self.cfg.scale_in_occupancy
                        * self.cfg.worker_capacity as f64
                        * target as f64;
            if fits {
                self.in_streak += 1;
                if self.ready(self.in_streak) {
                    return Some(self.scale_to(target, ControllerAction::ScaleIn));
                }
            } else {
                self.in_streak = 0;
            }
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        }
        None
    }

    fn ready(&self, streak: u32) -> bool {
        streak >= self.cfg.patience && self.cooldown_left == 0
    }

    fn scale_to(&mut self, new_active: usize, action: ControllerAction) -> usize {
        self.active = new_active;
        // The partitioner is rebuilt at the new count: its solver state
        // resets to the fresh default and the head must re-learn.
        self.decision = ChoicesDecision::UseD(2);
        self.out_streak = 0;
        self.in_streak = 0;
        self.cooldown_left = self.cfg.cooldown;
        self.push_event(action);
        new_active
    }

    /// Step 2 at a window boundary (only when step 1 made no change):
    /// re-solve `d` from the partitioner's head snapshot. Returns the new
    /// decision when the optimum moved — the caller must hand it to
    /// `Partitioner::apply_choices`.
    pub fn retune(&mut self, head_frequencies: &[f64], tail_mass: f64) -> Option<ChoicesDecision> {
        let solved =
            find_optimal_choices(head_frequencies, tail_mass, self.active, self.cfg.epsilon);
        if solved == self.decision {
            return None;
        }
        self.decision = solved;
        self.push_event(ControllerAction::Retune);
        Some(solved)
    }

    /// Phase boundaries rebuild the partitioner (the engine always builds a
    /// fresh one there); the controller's `d` view must follow the fresh
    /// default.
    pub fn note_partitioner_rebuilt(&mut self) {
        self.decision = ChoicesDecision::UseD(2);
    }

    fn push_event(&mut self, action: ControllerAction) {
        self.events.push(ControllerEvent {
            source: self.source,
            window: self.window,
            action,
            workers: self.active as u32,
            d: encode_decision(self.decision),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControllerConfig {
        ControllerConfig::new(2, 8, 100)
    }

    #[test]
    fn config_validates_bounds() {
        let c = cfg();
        assert_eq!(c.min_workers, 2);
        assert_eq!(c.max_workers, 8);
        assert_eq!(c.clamp_workers(1), 2);
        assert_eq!(c.clamp_workers(100), 8);
        assert_eq!(c.clamp_workers(5), 5);
    }

    #[test]
    #[should_panic(expected = "below min_workers")]
    fn inverted_bounds_panic() {
        let _ = ControllerConfig::new(5, 3, 100);
    }

    #[test]
    #[should_panic(expected = "scale_in_occupancy")]
    fn occupancy_above_one_panics() {
        ControllerConfig {
            scale_in_occupancy: 1.5,
            ..cfg()
        }
        .validate();
    }

    #[test]
    fn scale_out_needs_patience_and_respects_max() {
        let mut c = ElasticityController::new(cfg().with_cooldown(0), 0, 4);
        // One hot window is not enough at patience 2.
        assert_eq!(c.observe_window(400, 150), None);
        // Second consecutive hot window triggers.
        assert_eq!(c.observe_window(400, 150), Some(5));
        // Keep the pressure on: climbs to max and stops there.
        for _ in 0..20 {
            c.observe_window(400, 150);
        }
        assert_eq!(c.active_workers(), 8);
        assert_eq!(c.observe_window(400, 150), None, "at max: no action");
    }

    #[test]
    fn scale_in_needs_room_and_respects_min() {
        let mut c = ElasticityController::new(cfg().with_cooldown(0), 0, 4);
        // Total 50 fits at 50% occupancy on 3 workers (0.5·100·3 = 150).
        assert_eq!(c.observe_window(50, 20), None);
        assert_eq!(c.observe_window(50, 20), Some(3));
        for _ in 0..20 {
            c.observe_window(50, 20);
        }
        assert_eq!(c.active_workers(), 2, "clamped at min_workers");
    }

    #[test]
    fn cooldown_spaces_actions() {
        let mut c = ElasticityController::new(cfg().with_cooldown(3), 0, 2);
        assert_eq!(c.observe_window(400, 150), None);
        assert_eq!(c.observe_window(400, 150), Some(3));
        // Cooldown 3: the next three hot windows are ignored.
        assert_eq!(c.observe_window(400, 150), None);
        assert_eq!(c.observe_window(400, 150), None);
        assert_eq!(c.observe_window(400, 150), None);
        assert_eq!(c.observe_window(400, 150), Some(4));
    }

    #[test]
    fn constant_signal_never_reverses_direction() {
        // On any constant (total, max) signal the sequence of scale actions
        // is all-ScaleOut or all-ScaleIn, never mixed: scale-out pressure
        // suppresses scale-in, and absent pressure scale-out never fires.
        for (total, max) in [(400u64, 150u64), (50, 20), (300, 80), (10, 10)] {
            let mut c = ElasticityController::new(cfg(), 0, 4);
            for _ in 0..64 {
                let _ = c.observe_window(total, max);
            }
            let actions: Vec<ControllerAction> = c.events().iter().map(|e| e.action).collect();
            assert!(
                actions.windows(2).all(|w| w[0] == w[1]),
                "mixed actions on constant signal ({total},{max}): {actions:?}"
            );
        }
    }

    #[test]
    fn retune_logs_only_changes() {
        let mut c = ElasticityController::new(cfg(), 3, 5);
        // A 40% head key on 5 workers: the solver wants more than 2 choices.
        let head = [0.4];
        let first = c.retune(&head, 0.6);
        assert!(first.is_some(), "first solve moves off the fresh default");
        assert_eq!(c.retune(&head, 0.6), None, "unchanged head: no event");
        assert_eq!(c.events().len(), 1);
        let e = c.events()[0];
        assert_eq!(e.source, 3);
        assert_eq!(e.action, ControllerAction::Retune);
        assert_eq!(decode_decision(e.d), c.current_decision());
    }

    #[test]
    fn rescale_resets_decision_and_skips_stale_retune() {
        let mut c = ElasticityController::new(cfg().with_cooldown(0), 0, 4);
        let head = [0.4];
        c.retune(&head, 0.6);
        let before = c.current_decision();
        assert_ne!(before, ChoicesDecision::UseD(2));
        c.observe_window(400, 150);
        assert_eq!(c.observe_window(400, 150), Some(5));
        assert_eq!(
            c.current_decision(),
            ChoicesDecision::UseD(2),
            "fresh partitioner default after rescale"
        );
    }

    #[test]
    fn decision_codec_round_trips() {
        for d in [
            ChoicesDecision::SwitchToW,
            ChoicesDecision::UseD(2),
            ChoicesDecision::UseD(17),
        ] {
            assert_eq!(decode_decision(encode_decision(d)), d);
        }
    }

    #[test]
    fn merged_metrics_sort_canonically() {
        let e = |source, window| ControllerEvent {
            source,
            window,
            action: ControllerAction::Retune,
            workers: 4,
            d: 3,
        };
        let m = ControllerMetrics::merged(vec![e(1, 5), e(0, 9), e(1, 2), e(0, 1)]);
        let order: Vec<(u32, u64)> = m.events.iter().map(|x| (x.source, x.window)).collect();
        assert_eq!(order, vec![(0, 1), (0, 9), (1, 2), (1, 5)]);
        assert!(m.enabled);
        assert!(!ControllerMetrics::default().enabled);
    }

    #[test]
    fn identical_runs_produce_identical_logs() {
        let run = || {
            let mut c = ElasticityController::new(cfg(), 0, 4);
            for i in 0..32u64 {
                let total = 80 + (i % 7) * 60;
                let max = total / 2;
                if c.observe_window(total, max).is_none() {
                    let f = 0.1 + (i % 5) as f64 * 0.08;
                    c.retune(&[f], 1.0 - f);
                }
            }
            c.take_events()
        };
        assert_eq!(run(), run());
    }
}
