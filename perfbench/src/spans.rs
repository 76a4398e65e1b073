//! In-memory spans for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer's public
//! functions in a span (name, layer, start, end, parent, thread). Spans
//! stay in memory and are written out once, at exit. A layer's self time
//! is the summed duration of its spans minus the part of each span's
//! interval its child spans cover. Calls the library makes internally are
//! not visible from here, so a layer's self time includes whatever it
//! drives below its public boundary (a `fork_cell` span covers the core
//! simulation it runs).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use smt_stats::json::Json;

/// The layers spans are attributed to: one per crate boundary the
/// benchmark calls through, with the checkpoint code of `smt-core` kept
/// apart from its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code (output checks, loop bookkeeping).
    Bench,
    /// `smt-core`: configuration, build and the cycle-level pipeline.
    Core,
    /// `smt-core` checkpoint save and restore.
    Ckpt,
    /// `smt-mem`.
    Mem,
    /// `smt-branch`.
    Branch,
    /// `smt-workload`: image generation, ELF loading, instruction sources.
    Workload,
    /// `smt-experiments`: warmup sharing, cell forking, journal, JSON.
    Exp,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Core,
        Layer::Ckpt,
        Layer::Mem,
        Layer::Branch,
        Layer::Workload,
        Layer::Exp,
    ];

    /// The layer's name in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Ckpt => "ckpt",
            Layer::Mem => "mem",
            Layer::Branch => "branch",
            Layer::Workload => "workload",
            Layer::Exp => "exp",
        }
    }
}

struct Span {
    name: &'static str,
    layer: Layer,
    parent: Option<usize>,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder. A disabled tracer runs the wrapped closures and
/// records nothing, so the untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts far under 584 years")
    }

    /// Runs `f` inside a span. `f` receives the span's id, to pass as the
    /// parent of spans it opens (possibly on other threads).
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: Layer,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let thread = THREAD.with(|t| *t);
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                layer,
                parent,
                thread,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end_ns;
        out
    }

    /// Self time per layer, in nanoseconds, in [`Layer::ALL`] order.
    pub fn self_ns_by_layer(&self) -> [(Layer, u64); 7] {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = Layer::ALL.map(|l| (l, 0u64));
        for (i, s) in spans.iter().enumerate() {
            // Children on different threads may overlap each other, so
            // the covered part is the union of their intervals.
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("every layer is listed");
            out[slot].1 += own;
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let doc = Json::array(spans.iter().enumerate().map(|(id, s)| {
            Json::object([
                ("id", Json::from(id)),
                ("name", Json::from(s.name)),
                ("layer", Json::from(s.layer.name())),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("thread", Json::from(s.thread)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ])
        }));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(doc.render().as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        t.span("root", Layer::Exp, None, |root| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("child", Layer::Core, root, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let by = t.self_ns_by_layer();
        let get = |l: Layer| by.iter().find(|(x, _)| *x == l).unwrap().1;
        assert!(get(Layer::Core) >= 5_000_000);
        assert!(get(Layer::Exp) >= 2_000_000);
        assert!(get(Layer::Exp) < get(Layer::Core));
        assert_eq!(get(Layer::Mem), 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", Layer::Bench, None, |id| id), None);
        assert!(t.self_ns_by_layer().iter().all(|(_, ns)| *ns == 0));
    }
}
