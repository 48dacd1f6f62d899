//! Cluster specs: what a multi-process run executes.
//!
//! A [`ClusterSpec`] names one run — an [`EngineConfig`] (single-phase) or a
//! [`ScenarioConfig`] (multi-phase [`Scenario`]) — and the node counts
//! follow from it: one process per source, per worker, and per aggregator.
//!
//! The spec has one serialized form, a **text format**: one `key value` pair
//! per line, `#` comments, phases as `phase key=value ...` lines (see
//! [`ClusterSpec::parse`] / [`ClusterSpec::render`]). It is what a human
//! writes for `slb-node orchestrate --spec`, and it is what the orchestrator
//! puts in the `Start` frame, so child processes never read the spec file.
//! Rust prints the shortest decimal that parses back to the same `f64`, so
//! `parse(render(spec)) == spec` bit for bit and the config a node runs is
//! identical to the orchestrator's (unit- and property-tested; the
//! orchestrator refuses a spec that does not survive the trip).
//!
//! A spec resolves to a [`StagePlan`] via [`ClusterSpec::stage_plan`], which
//! is also exactly what the in-process engine runs — a cluster spec cannot
//! describe anything the differential suite cannot check.

use std::str::FromStr;

use slb_core::{ControllerConfig, PartitionerKind, SolverMode};
use slb_engine::{EngineConfig, ScenarioConfig, StagePlan};
use slb_telemetry::stage;
use slb_workloads::{Arrival, Scenario, ScenarioPhase};

use crate::wire::WireError;

/// The role one `slb-node` process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Generates and routes its share of the keyed stream.
    Source,
    /// Aggregates tuples into per-window partials.
    Worker,
    /// Merges worker partials into final windows.
    Aggregator,
}

impl NodeRole {
    /// Stable wire byte for the role: its [`stage`] code.
    pub fn as_u8(self) -> u8 {
        match self {
            NodeRole::Source => stage::SOURCE,
            NodeRole::Worker => stage::WORKER,
            NodeRole::Aggregator => stage::AGGREGATOR,
        }
    }

    /// Decodes a wire byte.
    pub fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            stage::SOURCE => Ok(NodeRole::Source),
            stage::WORKER => Ok(NodeRole::Worker),
            stage::AGGREGATOR => Ok(NodeRole::Aggregator),
            _ => Err(WireError::Malformed("unknown node role")),
        }
    }

    /// CLI name of the role.
    pub fn name(self) -> &'static str {
        match self {
            NodeRole::Source => "source",
            NodeRole::Worker => "worker",
            NodeRole::Aggregator => "aggregator",
        }
    }
}

impl FromStr for NodeRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "source" => Ok(NodeRole::Source),
            "worker" => Ok(NodeRole::Worker),
            "aggregator" => Ok(NodeRole::Aggregator),
            other => Err(format!("unknown role: {other}")),
        }
    }
}

/// The run a cluster executes.
#[derive(Debug, Clone, PartialEq)]
pub enum RunSpec {
    /// A single-phase engine run.
    Engine(EngineConfig),
    /// A multi-phase scenario run.
    Scenario(ScenarioConfig),
}

/// A cluster description: the run plus the node counts it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The run to execute.
    pub run: RunSpec,
}

impl ClusterSpec {
    /// The resolved plan every node runs its stage of, or the first rule a
    /// structurally invalid config breaks.
    pub fn stage_plan(&self) -> Result<StagePlan, String> {
        match &self.run {
            RunSpec::Engine(cfg) => cfg.try_stage_plan(),
            RunSpec::Scenario(cfg) => cfg.try_stage_plan(),
        }
    }

    /// Parses the text spec format. A key the spec's mode does not know, or
    /// one given twice (`phase` aside), is an error naming its line: a typo
    /// must not parse into a run without the field it meant to set. A spec
    /// that parses also resolves: a well-formed file describing a run no
    /// engine can execute (zero workers, an out-of-range controller) is an
    /// error here, not a panic later.
    pub fn parse(text: &str) -> Result<Self, String> {
        let spec = Self::parse_fields(text)?;
        spec.stage_plan()?;
        Ok(spec)
    }

    fn parse_fields(text: &str) -> Result<Self, String> {
        // (line number, key, value) of every field line, phases included.
        let mut fields: Vec<(usize, &str, &str)> = Vec::new();
        let mut phases: Vec<ScenarioPhase> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let at = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("line {at}: expected `key value`"))?;
            let value = value.trim();
            if key == "phase" {
                phases.push(parse_phase(value).map_err(|e| format!("line {at}: {e}"))?);
            } else if let Some((first, ..)) = fields.iter().find(|(_, k, _)| *k == key) {
                return Err(format!("line {at}: field {key} repeats line {first}"));
            }
            fields.push((at, key, value));
        }
        let opt = |name: &str| fields.iter().find(|(_, k, _)| *k == name).map(|f| f.2);
        let take = |name: &str| opt(name).ok_or_else(|| format!("missing field: {name}"));
        let int = |name: &str| -> Result<u64, String> {
            take(name)?
                .parse::<u64>()
                .map_err(|_| format!("field {name} must be an integer"))
        };
        let mode = take("mode")?;
        let known = match mode {
            "engine" => ENGINE_FIELDS,
            "scenario" => SCENARIO_FIELDS,
            other => return Err(format!("unknown mode: {other}")),
        };
        let unknown = fields
            .iter()
            .find(|(_, key, _)| !known.split_whitespace().any(|k| k == *key));
        if let Some((at, key, _)) = unknown {
            return Err(format!("line {at}: unknown field {key} in a {mode} spec"));
        }
        let scheme = take("scheme")?
            .parse::<PartitionerKind>()
            .map_err(|e| format!("bad scheme: {e}"))?;
        let solver = match opt("solver") {
            Some(text) => parse_solver(text)?,
            None => SolverMode::Online,
        };
        let controller = match opt("controller") {
            Some(text) => Some(parse_controller(text)?),
            None => None,
        };
        match mode {
            "engine" => {
                let cfg = EngineConfig {
                    kind: scheme,
                    sources: int("sources")? as usize,
                    workers: int("workers")? as usize,
                    keys: int("keys")? as usize,
                    skew: take("skew")?
                        .parse::<f64>()
                        .map_err(|_| "field skew must be a float".to_string())?,
                    messages: int("messages")?,
                    service_time_us: int("service_time_us")?,
                    queue_capacity: int("queue_capacity")? as usize,
                    seed: int("seed")?,
                    batch_size: int("batch_size")? as usize,
                    window_size: int("window_size")?,
                    aggregators: int("aggregators")? as usize,
                    solver,
                    controller,
                };
                Ok(Self {
                    run: RunSpec::Engine(cfg),
                })
            }
            _ => {
                // A scenario: the mode was checked against both lists above.
                if phases.is_empty() {
                    return Err("scenario spec needs at least one `phase` line".into());
                }
                let mut scenario = Scenario::new(
                    take("name")?,
                    int("sources")? as usize,
                    int("window_size")?,
                    int("seed")?,
                );
                scenario.phases = phases;
                let mut cfg = ScenarioConfig::new(scheme, scenario)
                    .with_service_time_us(int("service_time_us")?)
                    .with_queue_capacity(int("queue_capacity")? as usize)
                    .with_batch_size(int("batch_size")? as usize)
                    .with_aggregators(int("aggregators")? as usize)
                    .with_solver(solver);
                // Through the field: `with_controller` asserts, and this one
                // came from outside the program (`parse` checks it).
                cfg.controller = controller;
                Ok(Self {
                    run: RunSpec::Scenario(cfg),
                })
            }
        }
    }

    /// The text the control plane ships to every node, or an error when it
    /// is not what its own rendering parses back to — a scenario name that is
    /// empty, spans lines or has edge whitespace, which a spec file could not
    /// have expressed either. Refusing keeps a cluster from silently running
    /// a renamed or truncated config.
    pub(crate) fn shipped_text(&self) -> Result<String, String> {
        let text = self.render();
        match Self::parse(&text) {
            Ok(parsed) if parsed == *self => Ok(text),
            _ => Err("cluster spec does not survive its text form \
                      (a scenario name with a newline or edge whitespace?)"
                .into()),
        }
    }

    /// Renders the text spec format; `parse(render(spec)) == spec`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        match &self.run {
            RunSpec::Engine(cfg) => {
                line("mode", "engine".into());
                line("scheme", cfg.kind.symbol().into());
                line("sources", cfg.sources.to_string());
                line("workers", cfg.workers.to_string());
                line("keys", cfg.keys.to_string());
                line("skew", cfg.skew.to_string());
                line("messages", cfg.messages.to_string());
                line("service_time_us", cfg.service_time_us.to_string());
                line("queue_capacity", cfg.queue_capacity.to_string());
                line("seed", cfg.seed.to_string());
                line("batch_size", cfg.batch_size.to_string());
                line("window_size", cfg.window_size.to_string());
                line("aggregators", cfg.aggregators.to_string());
                if cfg.solver != SolverMode::Online {
                    line("solver", render_solver(cfg.solver));
                }
                if let Some(controller) = &cfg.controller {
                    line("controller", render_controller(controller));
                }
            }
            RunSpec::Scenario(cfg) => {
                line("mode", "scenario".into());
                line("scheme", cfg.kind.symbol().into());
                line("name", cfg.scenario.name.clone());
                line("sources", cfg.scenario.sources.to_string());
                line("window_size", cfg.scenario.window_size.to_string());
                line("seed", cfg.scenario.seed.to_string());
                line("service_time_us", cfg.service_time_us.to_string());
                line("queue_capacity", cfg.queue_capacity.to_string());
                line("batch_size", cfg.batch_size.to_string());
                line("aggregators", cfg.aggregators.to_string());
                if cfg.solver != SolverMode::Online {
                    line("solver", render_solver(cfg.solver));
                }
                if let Some(controller) = &cfg.controller {
                    line("controller", render_controller(controller));
                }
                for phase in &cfg.scenario.phases {
                    line("phase", render_phase(phase));
                }
            }
        }
        out
    }
}

/// The keys an engine spec may give, each once: `mode`, then one per
/// [`EngineConfig`] field (`scheme` is its `kind`).
const ENGINE_FIELDS: &str = "mode scheme sources workers keys skew messages \
                             service_time_us queue_capacity seed batch_size window_size \
                             aggregators solver controller";

/// The keys a scenario spec may give, each once but `phase` (one line per
/// phase).
const SCENARIO_FIELDS: &str = "mode scheme name sources window_size seed service_time_us \
                               queue_capacity batch_size aggregators solver controller phase";

fn parse_phase(tokens: &str) -> Result<ScenarioPhase, String> {
    let mut windows = None;
    let mut keys = None;
    let mut skew = None;
    let mut workers = None;
    let mut drift_epochs = 1u64;
    let mut speed: Vec<f64> = Vec::new();
    let mut burst_tuples = None;
    let mut pause_us = 0u64;
    for token in tokens.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("phase token `{token}` is not key=value"))?;
        let bad = |what: &str| format!("phase {key} must be {what}");
        match key {
            "windows" => windows = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "keys" => keys = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "skew" => skew = Some(value.parse::<f64>().map_err(|_| bad("a float"))?),
            "workers" => workers = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "drift_epochs" => drift_epochs = value.parse::<u64>().map_err(|_| bad("an integer"))?,
            "speed" => {
                speed = value
                    .split(',')
                    .map(|s| s.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("a comma-separated float list"))?;
            }
            "burst_tuples" => {
                burst_tuples = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?)
            }
            "pause_us" => pause_us = value.parse::<u64>().map_err(|_| bad("an integer"))?,
            other => return Err(format!("unknown phase field: {other}")),
        }
    }
    let mut phase = ScenarioPhase::new(
        windows.ok_or("phase needs windows=")?,
        keys.ok_or("phase needs keys=")?,
        skew.ok_or("phase needs skew=")?,
        workers.ok_or("phase needs workers=")?,
    )
    .with_drift_epochs(drift_epochs);
    if !speed.is_empty() {
        phase = phase.with_worker_speed(speed);
    }
    if let Some(burst_tuples) = burst_tuples {
        phase = phase.with_arrival(Arrival::Bursty {
            burst_tuples,
            pause_us,
        });
    }
    Ok(phase)
}

fn render_phase(phase: &ScenarioPhase) -> String {
    let mut parts = vec![
        format!("windows={}", phase.windows),
        format!("keys={}", phase.keys),
        format!("skew={}", phase.skew),
        format!("workers={}", phase.workers),
    ];
    if phase.drift_epochs != 1 {
        parts.push(format!("drift_epochs={}", phase.drift_epochs));
    }
    if !phase.worker_speed.is_empty() {
        let speeds: Vec<String> = phase.worker_speed.iter().map(f64::to_string).collect();
        parts.push(format!("speed={}", speeds.join(",")));
    }
    if let Arrival::Bursty {
        burst_tuples,
        pause_us,
    } = phase.arrival
    {
        parts.push(format!("burst_tuples={burst_tuples}"));
        parts.push(format!("pause_us={pause_us}"));
    }
    parts.join(" ")
}

fn parse_solver(text: &str) -> Result<SolverMode, String> {
    match text {
        "online" => Ok(SolverMode::Online),
        "external" => Ok(SolverMode::External),
        other => match other.strip_prefix("fixed:") {
            Some(d) => {
                let d = d
                    .parse::<usize>()
                    .map_err(|_| format!("bad fixed d: {d}"))?;
                if d < 2 {
                    return Err(format!("fixed d must be at least 2, got {d}"));
                }
                Ok(SolverMode::Fixed(d))
            }
            None => Err(format!("unknown solver mode: {other}")),
        },
    }
}

fn render_solver(solver: SolverMode) -> String {
    match solver {
        SolverMode::Online => "online".into(),
        SolverMode::Fixed(d) => format!("fixed:{d}"),
        SolverMode::External => "external".into(),
    }
}

fn parse_controller(tokens: &str) -> Result<ControllerConfig, String> {
    let mut min = None;
    let mut max = None;
    let mut capacity = None;
    let mut occupancy = 0.5f64;
    let mut patience = 2u32;
    let mut cooldown = 2u32;
    let mut step = 1usize;
    let mut epsilon = 1e-4f64;
    for token in tokens.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("controller token `{token}` is not key=value"))?;
        let bad = |what: &str| format!("controller {key} must be {what}");
        match key {
            "min" => min = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "max" => max = Some(value.parse::<usize>().map_err(|_| bad("an integer"))?),
            "capacity" => capacity = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "occupancy" => occupancy = value.parse::<f64>().map_err(|_| bad("a float"))?,
            "patience" => patience = value.parse::<u32>().map_err(|_| bad("an integer"))?,
            "cooldown" => cooldown = value.parse::<u32>().map_err(|_| bad("an integer"))?,
            "step" => step = value.parse::<usize>().map_err(|_| bad("an integer"))?,
            "epsilon" => epsilon = value.parse::<f64>().map_err(|_| bad("a float"))?,
            other => return Err(format!("unknown controller field: {other}")),
        }
    }
    Ok(ControllerConfig {
        min_workers: min.ok_or("controller needs min=")?,
        max_workers: max.ok_or("controller needs max=")?,
        worker_capacity: capacity.ok_or("controller needs capacity=")?,
        scale_in_occupancy: occupancy,
        patience,
        cooldown,
        step,
        epsilon,
    })
}

fn render_controller(cfg: &ControllerConfig) -> String {
    format!(
        "min={} max={} capacity={} occupancy={} patience={} cooldown={} step={} epsilon={}",
        cfg.min_workers,
        cfg.max_workers,
        cfg.worker_capacity,
        cfg.scale_in_occupancy,
        cfg.patience,
        cfg.cooldown,
        cfg.step,
        cfg.epsilon
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_spec() -> ClusterSpec {
        ClusterSpec {
            run: RunSpec::Engine(
                EngineConfig::smoke(PartitionerKind::DChoices, 1.4)
                    .with_messages(24_000)
                    .with_service_time_us(0)
                    .with_seed(9),
            ),
        }
    }

    fn scenario_spec() -> ClusterSpec {
        let scenario = Scenario::new("demo", 2, 256, 7)
            .phase(ScenarioPhase::new(2, 400, 1.8, 3))
            .phase(
                ScenarioPhase::new(2, 400, 1.25, 5)
                    .with_drift_epochs(2)
                    .with_worker_speed(vec![2.0, 1.0, 1.0, 1.0, 1.0]),
            )
            .phase(
                ScenarioPhase::new(1, 200, 0.0, 2).with_arrival(Arrival::Bursty {
                    burst_tuples: 128,
                    pause_us: 10,
                }),
            );
        ClusterSpec {
            run: RunSpec::Scenario(ScenarioConfig::new(PartitionerKind::WChoices, scenario)),
        }
    }

    #[test]
    fn text_spec_round_trips() {
        for spec in [engine_spec(), scenario_spec()] {
            let text = spec.render();
            let back = ClusterSpec::parse(&text).expect("own rendering parses");
            assert_eq!(back, spec, "text:\n{text}");
        }
    }

    #[test]
    fn node_counts_follow_the_config() {
        let counts = |spec: ClusterSpec| {
            let plan = spec.stage_plan().expect("fixture resolves");
            (plan.sources, plan.spawned_workers, plan.aggregators)
        };
        assert_eq!(counts(engine_spec()), (2, 4, 2));
        assert_eq!(counts(scenario_spec()), (2, 5, 2), "max over phases");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(ClusterSpec::parse("").is_err());
        assert!(ClusterSpec::parse("mode engine\n").is_err());
        assert!(ClusterSpec::parse("mode warp\nscheme PKG\n").is_err());
        assert!(ClusterSpec::parse("mode scenario\nscheme PKG\nname x\nsources 1\nwindow_size 8\nseed 1\nservice_time_us 0\nqueue_capacity 64\nbatch_size 8\naggregators 1\n").is_err(), "no phases");
        // Comments and blank lines are fine.
        let text = format!("# cluster\n\n{}", engine_spec().render());
        assert!(ClusterSpec::parse(&text).is_ok());
        // Well-formed text describing a run no engine can execute is an
        // error naming the broken rule — these used to parse, then panic in
        // `stage_plan`.
        let with = |text: &str, line: &str, replacement: &str| {
            assert!(text.contains(line), "fixture lost its `{line}` line");
            ClusterSpec::parse(&text.replace(line, replacement))
        };
        let engine = engine_spec().render();
        for (line, replacement, rule) in [
            ("sources 2", "sources 0", "need at least one source"),
            ("workers 4", "workers 0", "need at least one worker"),
            ("keys 1000", "keys 0", "need at least one key"),
            (
                "window_size 2048",
                "window_size 0",
                "windows need at least one tuple",
            ),
            (
                "queue_capacity 128",
                "queue_capacity 0",
                "queues need capacity",
            ),
            (
                "batch_size 256",
                "batch_size 0",
                "batches need at least one tuple",
            ),
            ("aggregators 2", "aggregators 0", "at least one aggregator"),
            ("skew 1.4", "skew NaN", "skew must be finite"),
        ] {
            let err = with(&engine, line, replacement).expect_err(replacement);
            assert!(err.contains(rule), "{replacement}: {err}");
        }
        for (controller, rule) in [
            ("min=0 max=4 capacity=100", "min_workers must be at least 1"),
            ("min=3 max=2 capacity=100", "below min_workers"),
            ("min=1 max=4 capacity=0", "worker_capacity must be positive"),
            ("min=1 max=4 capacity=9 occupancy=1.5", "scale_in_occupancy"),
            ("min=1 max=4 capacity=9 patience=0", "patience"),
            ("min=1 max=4 capacity=9 step=0", "step must be at least 1"),
            (
                "min=1 max=4 capacity=9 epsilon=0",
                "epsilon must be positive",
            ),
        ] {
            for spec in [engine_spec(), scenario_spec()] {
                let text = format!("{}controller {controller}\n", spec.render());
                let err = ClusterSpec::parse(&text).expect_err(controller);
                assert!(err.contains(rule), "{controller}: {err}");
            }
        }
        let scenario = scenario_spec().render();
        let err = with(&scenario, "aggregators 2", "aggregators 0").expect_err("aggregators 0");
        assert!(err.contains("at least one aggregator"), "{err}");
        let err = with(&scenario, "workers=3", "workers=0").expect_err("workers=0");
        assert!(err.contains("invalid scenario"), "{err}");
        // A key the mode does not know, or one given twice, is an error that
        // names its line — these used to parse into a run without the
        // controller, on the first of two worker counts, or ignoring a line.
        let line_count = |text: &str| text.lines().count();
        for (text, what) in [
            (
                format!("{engine}controler min=2 max=8 capacity=100\n"),
                format!("line {}: unknown field controler", line_count(&engine) + 1),
            ),
            (
                format!("{scenario}workers 8\n"),
                format!("line {}: unknown field workers", line_count(&scenario) + 1),
            ),
            (
                engine.replace("workers 4\n", "workers 4\nworkers 8\n"),
                "line 5: field workers repeats line 4".to_string(),
            ),
        ] {
            let err = ClusterSpec::parse(&text).expect_err(&what);
            assert!(err.contains(&what), "{what}: {err}");
        }
    }

    #[test]
    fn only_specs_that_survive_their_text_form_are_shipped() {
        for spec in [engine_spec(), scenario_spec()] {
            assert_eq!(spec.shipped_text(), Ok(spec.render()));
        }
        for name in ["two\nlines", " padded", "padded ", ""] {
            let mut spec = scenario_spec();
            let RunSpec::Scenario(cfg) = &mut spec.run else {
                unreachable!("scenario_spec is a scenario");
            };
            cfg.scenario.name = name.into();
            assert!(spec.shipped_text().is_err(), "name {name:?} was shipped");
        }
        let mut spec = engine_spec();
        let RunSpec::Engine(cfg) = &mut spec.run else {
            unreachable!("engine_spec is an engine run");
        };
        cfg.workers = 0;
        assert!(spec.shipped_text().is_err(), "an invalid spec was shipped");
    }

    #[test]
    fn roles_round_trip() {
        for role in [NodeRole::Source, NodeRole::Worker, NodeRole::Aggregator] {
            assert_eq!(NodeRole::from_u8(role.as_u8()).unwrap(), role);
            assert_eq!(role.name().parse::<NodeRole>().unwrap(), role);
        }
        assert!(NodeRole::from_u8(9).is_err());
        assert!("driver".parse::<NodeRole>().is_err());
    }
}
