//! Tests of the benchmark itself, on tiny configurations of every
//! workload: every metric BENCHMARK.json names is emitted with its unit,
//! the correctness checks catch a corrupted payload, and the timing
//! decorator leaves virtual time untouched.

use fdpcache_nvme::{DataStore, FaultOp, InjectedFault};
use fdpcache_perfbench::run::{run, run_with, Metric, Options, Outcome};
use fdpcache_perfbench::spec::{Spec, WORKLOADS};

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let rest = &line[at..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[..end].lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

fn names(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn tiny(name: &str, trace: bool) -> Outcome {
    let spec = Spec::by_name(name).expect("known workload").tiny();
    let opts =
        Options { seed: 7, seconds: 1.0, trace, extra_setup_s: Vec::new(), window_ops: Some(8192) };
    run(&spec, &opts)
}

#[test]
fn every_workload_emits_every_listed_metric_with_its_unit() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert!(e2e.len() >= 10 && layers.len() >= 30, "BENCHMARK.json parsed: {e2e:?}");
    for w in WORKLOADS {
        let plain = tiny(w, false);
        assert!(plain.correct, "{w}: {:?}", plain.problems);
        assert_eq!(plain.failed, 0, "{w}: no op may fail");
        assert!(plain.attempted >= 8192, "{w}: attempted {}", plain.attempted);
        assert_eq!(names(&plain.end_to_end), e2e, "{w}: end-to-end metrics");
        for m in &plain.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {} = {}", m.name, m.value);
        }
        let traced = tiny(w, true);
        assert!(traced.correct, "{w} traced: {:?}", traced.problems);
        assert_eq!(names(&traced.per_layer), layers, "{w}: per-layer metrics");
    }
}

/// Flips one byte of every payload written to the store.
struct FlipStore(Box<dyn DataStore>);

impl DataStore for FlipStore {
    fn attach(&self, lbas: u64, lba_bytes: u32) {
        self.0.attach(lbas, lba_bytes);
    }
    fn write_block(&self, lba: u64, data: &[u8]) {
        let mut d = data.to_vec();
        d[0] ^= 0x40;
        self.0.write_block(lba, &d);
    }
    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        self.0.read_block(lba, out)
    }
    fn discard(&self, lba: u64) {
        self.0.discard(lba);
    }
    fn retains_data(&self) -> bool {
        self.0.retains_data()
    }
    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        let mut d = data.to_vec();
        let mid = d.len() / 2;
        d[mid] ^= 0x40;
        self.0.write_blocks(lba, &d, block_bytes);
    }
    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        self.0.fault(op, lba, nlb)
    }
}

#[test]
fn a_flipped_payload_byte_fails_the_correctness_check() {
    let spec = Spec::by_name("loc_seal").expect("known workload").tiny();
    let opts = Options {
        seed: 3,
        seconds: 1.0,
        trace: false,
        extra_setup_s: Vec::new(),
        window_ops: Some(4096),
    };
    assert!(run(&spec, &opts).correct, "the unmodified store passes");
    let out = run_with(&spec, &opts, &|s| Box::new(FlipStore(s)));
    assert!(!out.correct, "a corrupted payload must fail the run");
    assert!(
        out.problems.iter().any(|p| p.contains("on-flash bytes differ")),
        "problems: {:?}",
        out.problems
    );
}

#[test]
fn tracing_leaves_virtual_time_bit_identical_on_twitter_gc() {
    let spec = Spec::by_name("twitter_gc").expect("known workload").tiny();
    let virt = |trace: bool| {
        let opts = Options {
            seed: 5,
            seconds: 1.0,
            trace,
            extra_setup_s: Vec::new(),
            window_ops: Some(16384),
        };
        let out = run(&spec, &opts);
        assert!(out.correct, "trace={trace}: {:?}", out.problems);
        let mut v: Vec<(&str, u64)> = out
            .end_to_end
            .iter()
            .filter(|m| {
                ["dlwa", "alwa", "hit_ratio", "virt_read_mean_us", "virt_write_mean_us"]
                    .contains(&m.name)
            })
            .map(|m| (m.name, m.value.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    let plain = virt(false);
    assert_eq!(plain.len(), 5);
    assert_eq!(plain, virt(true));
}
