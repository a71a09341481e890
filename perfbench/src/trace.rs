//! In-memory span recorder and the layer tree built from it.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! workspace crates (see `traced.rs`). Each span keeps its layer, its
//! parent, an episode/request id, start and end in nanoseconds since the
//! recorder started, and the allocations its thread made while it was
//! open. The recorder is thread-local: every traced re-drive runs on the
//! thread that installed it. Spans are written out when the run ends.

use crate::alloc;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the benchmark can reach from outside the
/// program. `name()` is the metric prefix of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    Workload,
    ScenarioParseCompile,
    ScenarioReport,
    SweepPoint,
    FieldSetup,
    FieldPass,
    FieldRun,
    FleetRun,
    FleetPlain,
    FleetEpisodePlain,
    FleetRedrive,
    FleetEpisode,
    FleetCheckpointSave,
    CoreRun,
    CoreDecide,
    CoreEnvStep,
    CoreAdversaryJam,
    CoreFeedback,
    DqnAct,
    DqnTrainStep,
    DqnObserve,
    ServeTier,
    ServeRequest,
}

impl Layer {
    pub const ALL: [Layer; 23] = [
        Layer::Workload,
        Layer::ScenarioParseCompile,
        Layer::ScenarioReport,
        Layer::SweepPoint,
        Layer::FieldSetup,
        Layer::FieldPass,
        Layer::FieldRun,
        Layer::FleetRun,
        Layer::FleetPlain,
        Layer::FleetEpisodePlain,
        Layer::FleetRedrive,
        Layer::FleetEpisode,
        Layer::FleetCheckpointSave,
        Layer::CoreRun,
        Layer::CoreDecide,
        Layer::CoreEnvStep,
        Layer::CoreAdversaryJam,
        Layer::CoreFeedback,
        Layer::DqnAct,
        Layer::DqnTrainStep,
        Layer::DqnObserve,
        Layer::ServeTier,
        Layer::ServeRequest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::ScenarioParseCompile => "scenario.parse_compile",
            Layer::ScenarioReport => "scenario.report",
            Layer::SweepPoint => "sweep.point",
            Layer::FieldSetup => "field.setup",
            Layer::FieldPass => "field.pass",
            Layer::FieldRun => "field.run",
            Layer::FleetRun => "fleet.run",
            Layer::FleetPlain => "fleet.plain",
            Layer::FleetEpisodePlain => "fleet.episode_plain",
            Layer::FleetRedrive => "fleet.redrive",
            Layer::FleetEpisode => "fleet.episode",
            Layer::FleetCheckpointSave => "fleet.checkpoint_save",
            Layer::CoreRun => "core.run",
            Layer::CoreDecide => "core.decide",
            Layer::CoreEnvStep => "core.env_step",
            Layer::CoreAdversaryJam => "core.adversary_jam",
            Layer::CoreFeedback => "core.feedback",
            Layer::DqnAct => "dqn.act",
            Layer::DqnTrainStep => "dqn.train_step",
            Layer::DqnObserve => "dqn.observe",
            Layer::ServeTier => "serve.tier",
            Layer::ServeRequest => "serve.request",
        }
    }
}

/// "No parent" / "recorder off".
pub const NONE: u32 = u32::MAX;

/// One recorded span. `allocs` counts the allocations the recording
/// thread made while the span was open, children included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub id: u32,
    pub start: u64,
    pub end: u64,
    pub allocs: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Allocations the recorder made itself (span-list growth), kept
    /// out of every span's count.
    own_allocs: u64,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn allocs(&self) -> u64 {
        alloc::thread() - self.own_allocs
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, with room for `capacity` spans
/// before the list has to grow.
pub fn start(capacity: usize) {
    let before = alloc::thread();
    let mut recorder = Recorder {
        base: Instant::now(),
        spans: Vec::with_capacity(capacity),
        stack: Vec::with_capacity(64),
        own_allocs: 0,
    };
    recorder.own_allocs = alloc::thread() - before;
    RECORDER.with(|r| *r.borrow_mut() = Some(recorder));
}

/// Stops recording and hands back every span, in begin order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Opens a span under the innermost open one. Returns [`NONE`] when
/// the recorder is off, which makes [`end`] a no-op.
pub fn begin(layer: Layer, id: u32) -> u32 {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return NONE;
        };
        let before = alloc::thread();
        let index = rec.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(NONE);
        rec.spans.push(Span {
            layer,
            parent,
            id,
            start: 0,
            end: 0,
            allocs: 0,
        });
        rec.stack.push(index);
        rec.own_allocs += alloc::thread() - before;
        let allocs = rec.allocs();
        let start = rec.now();
        let span = &mut rec.spans[index as usize];
        span.allocs = allocs;
        span.start = start;
        index
    })
}

/// Closes span `index` (which must be the innermost open one),
/// optionally renaming it now that its outcome is known.
pub fn end_as(index: u32, layer: Option<Layer>) {
    if index == NONE {
        return;
    }
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return;
        };
        let end = rec.now();
        let allocs = rec.allocs();
        let top = rec.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must nest");
        let span = &mut rec.spans[index as usize];
        span.end = end;
        span.allocs = allocs - span.allocs;
        if let Some(layer) = layer {
            span.layer = layer;
        }
    });
}

pub fn end(index: u32) {
    end_as(index, None);
}

/// Records a finished root span from stamps taken elsewhere (the serve
/// client's sender and receiver threads). Allocations are not known
/// for such spans and count as 0.
pub fn record(layer: Layer, id: u32, start: Instant, end: Instant) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return;
        };
        let ns = |t: Instant| t.saturating_duration_since(rec.base).as_nanos() as u64;
        let span = Span {
            layer,
            parent: NONE,
            id,
            start: ns(start),
            end: ns(end).max(ns(start)),
            allocs: 0,
        };
        let before = alloc::thread();
        rec.spans.push(span);
        rec.own_allocs += alloc::thread() - before;
    });
}

/// Runs `f` inside a span.
pub fn span<T>(layer: Layer, id: u32, f: impl FnOnce() -> T) -> T {
    let index = begin(layer, id);
    let out = f();
    end(index);
    out
}

/// Per-layer totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Node {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub self_allocs: u64,
}

/// Self time and self allocations of every span: its own value minus
/// what its direct children cover. Fails if a child leaves its
/// parent's interval or the children cover more than the parent.
pub fn self_values(spans: &[Span]) -> Result<Vec<(u64, u64)>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                s.layer.name()
            ));
        }
        if s.parent != NONE {
            let p = s.parent as usize;
            if p >= i {
                return Err(format!("span {i} has parent {p} recorded after it"));
            }
            let parent = &spans[p];
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {i} ({}) leaves its parent {p} ({})",
                    s.layer.name(),
                    parent.layer.name()
                ));
            }
            child_ns[p] += s.duration();
            child_allocs[p] += s.allocs;
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let self_ns = s.duration().checked_sub(child_ns[i]).ok_or_else(|| {
                format!(
                    "children of span {i} ({}) cover more than it",
                    s.layer.name()
                )
            })?;
            let self_allocs = s.allocs.checked_sub(child_allocs[i]).ok_or_else(|| {
                format!(
                    "children of span {i} ({}) allocate more than it",
                    s.layer.name()
                )
            })?;
            Ok((self_ns, self_allocs))
        })
        .collect()
}

/// Totals per layer.
pub fn by_layer(spans: &[Span]) -> Result<BTreeMap<Layer, Node>, String> {
    let selfs = self_values(spans)?;
    let mut nodes: BTreeMap<Layer, Node> = BTreeMap::new();
    for (s, &(self_ns, self_allocs)) in spans.iter().zip(&selfs) {
        let n = nodes.entry(s.layer).or_default();
        n.calls += 1;
        n.total_ns += s.duration();
        n.self_ns += self_ns;
        n.allocs += s.allocs;
        n.self_allocs += self_allocs;
    }
    Ok(nodes)
}

/// The layer tree: spans grouped by their path of layers from the root.
/// Checks that, on every path, the children's time plus the
/// unattributed (self) time equals the parent's time exactly, and that
/// every child's share of its parent and every self share lies in
/// [0, 1]. Returns `(path, node)` in path order.
pub fn tree(spans: &[Span]) -> Result<Vec<(String, Node)>, String> {
    let selfs = self_values(spans)?;
    let mut path_of = Vec::with_capacity(spans.len());
    let mut ids: HashMap<(usize, Layer), usize> = HashMap::new();
    let mut paths: Vec<(String, Option<usize>, Node)> = Vec::new();
    for (s, &(self_ns, self_allocs)) in spans.iter().zip(&selfs) {
        let parent_path = (s.parent != NONE).then(|| path_of[s.parent as usize]);
        let key = (parent_path.map_or(usize::MAX, |p| p), s.layer);
        let id = *ids.entry(key).or_insert_with(|| {
            let name = match parent_path {
                Some(p) => format!("{}/{}", paths[p].0, s.layer.name()),
                None => s.layer.name().to_string(),
            };
            paths.push((name, parent_path, Node::default()));
            paths.len() - 1
        });
        path_of.push(id);
        let n = &mut paths[id].2;
        n.calls += 1;
        n.total_ns += s.duration();
        n.self_ns += self_ns;
        n.allocs += s.allocs;
        n.self_allocs += self_allocs;
    }
    let mut children_ns = vec![0u64; paths.len()];
    for (_, parent, node) in &paths {
        if let Some(p) = parent {
            children_ns[*p] += node.total_ns;
        }
    }
    for (i, (name, parent, node)) in paths.iter().enumerate() {
        if children_ns[i] + node.self_ns != node.total_ns {
            return Err(format!(
                "{name}: children {} + unattributed {} != total {}",
                children_ns[i], node.self_ns, node.total_ns
            ));
        }
        let shares = [
            share(node.self_ns, node.total_ns),
            parent.map_or(0.0, |p| share(node.total_ns, paths[p].2.total_ns)),
        ];
        if shares.iter().any(|s| !(0.0..=1.0).contains(s)) {
            return Err(format!("{name}: share outside [0, 1]: {shares:?}"));
        }
    }
    let mut out: Vec<(String, Node)> = paths.into_iter().map(|(n, _, node)| (n, node)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// `part / whole`, 0 for an empty whole.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The layer-tree self-test on a synthetic span list with known self
/// times, plus a malformed list that must be refused.
pub fn self_test() -> Result<(), String> {
    let span = |layer, parent, start, end, allocs| Span {
        layer,
        parent,
        id: 0,
        start,
        end,
        allocs,
    };
    // core.run [0,100) { decide [10,40), env_step [50,90) { jam [55,60) } }
    let spans = [
        span(Layer::CoreRun, NONE, 0, 100, 9),
        span(Layer::CoreDecide, 0, 10, 40, 2),
        span(Layer::CoreEnvStep, 0, 50, 90, 4),
        span(Layer::CoreAdversaryJam, 2, 55, 60, 1),
    ];
    let nodes = by_layer(&spans)?;
    let expect = [
        (Layer::CoreRun, 30, 3),
        (Layer::CoreDecide, 30, 2),
        (Layer::CoreEnvStep, 35, 3),
        (Layer::CoreAdversaryJam, 5, 1),
    ];
    for (layer, self_ns, self_allocs) in expect {
        let n = nodes[&layer];
        if n.self_ns != self_ns || n.self_allocs != self_allocs {
            return Err(format!("synthetic {}: got {n:?}", layer.name()));
        }
    }
    let paths = tree(&spans)?;
    let root = paths
        .iter()
        .find(|(p, _)| p == "core.run")
        .ok_or("synthetic tree lost its root")?;
    if root.1.total_ns != 100 || root.1.self_ns != 30 {
        return Err(format!("synthetic root: {:?}", root.1));
    }
    let mut bad = spans;
    bad[3].end = 95; // the grandchild leaves its parent
    if tree(&bad).is_ok() {
        return Err("a child outside its parent was accepted".into());
    }
    Ok(())
}

/// Writes the spans as fixed 37-byte little-endian records after a
/// header naming the layers: `layer u8, parent u32, id u32, start u64,
/// end u64, allocs u64`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "ctjam-perfbench-spans/v1")?;
    for layer in Layer::ALL {
        writeln!(out, "{} {}", layer as u8, layer.name())?;
    }
    writeln!(out)?;
    for s in spans {
        out.write_all(&[s.layer as u8])?;
        out.write_all(&s.parent.to_le_bytes())?;
        out.write_all(&s.id.to_le_bytes())?;
        out.write_all(&s.start.to_le_bytes())?;
        out.write_all(&s.end.to_le_bytes())?;
        out.write_all(&s.allocs.to_le_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_span_list_passes_the_self_test() {
        self_test().unwrap();
    }

    #[test]
    fn recorded_spans_nest_and_count_allocations() {
        start(8);
        let root = begin(Layer::CoreRun, 7);
        span(Layer::CoreDecide, 0, || std::hint::black_box(vec![1u8; 64]));
        end(root);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[0].id), (NONE, 7));
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].allocs, 1);
        assert!(spans[0].allocs >= 1);
        let nodes = by_layer(&spans).unwrap();
        let run = nodes[&Layer::CoreRun];
        assert_eq!(run.self_ns + spans[1].duration(), run.total_ns);
        assert_eq!(tree(&spans).unwrap().len(), 2);
    }

    #[test]
    fn spans_are_not_recorded_when_the_recorder_is_off() {
        assert_eq!(begin(Layer::CoreRun, 0), NONE);
        end(NONE);
        assert!(finish().is_empty());
    }
}
