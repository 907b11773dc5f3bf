//! The antalloc benchmark: one command per workload, printing every
//! end-to-end metric (or, traced, every per-layer metric) with its unit
//! and a correctness verdict.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the lines before it repeat each metric with its quartiles and sample
//! count. Scratch stores and span dumps go under `.perfbench/` in the
//! current directory. `METRICS.md` in this package records why each
//! workload and metric exists.

#![forbid(unsafe_code)]
// A benchmark exists to read the wall clock; no timing here feeds a
// simulation.
#![allow(clippy::disallowed_methods)]

mod colony;
mod ensemble;
mod observe;
mod probes;
mod replica;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;

use report::Report;
use workloads::Workload;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ant_rounds_per_s",
    "runs_per_s",
    "served_runs_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [&str; 47] = [
    "rng.ant_stream_ns",
    "noise.prepare_ns",
    "core.kernel_ns_per_ant.ant",
    "core.kernel_ns_per_ant.ant_desync",
    "core.kernel_ns_per_ant.precise_sigmoid",
    "core.kernel_ns_per_ant.precise_adversarial",
    "core.kernel_ns_per_ant.trivial",
    "core.kernel_ns_per_ant.exact_greedy",
    "core.kernel_ns_per_ant.proportional",
    "core.bank_build_ns",
    "env.deficits_ns",
    "env.commit_round_us",
    "env.timeline_ns",
    "sim.engine_overhead_us",
    "sim.parallel_speedup",
    "sim.round_us_p50",
    "sim.round_us_p99",
    "sim.event_round_us",
    "sim.quiet_round_us",
    "sim.segments",
    "sim.arena_overhead_ns_per_ant",
    "sim.build_ms",
    "sim.reset_from_us",
    "sim.run_us",
    "sim.checkpoint_capture_us",
    "sim.checkpoint_encode_us",
    "sim.checkpoint_decode_us",
    "sim.checkpoint_bytes",
    "scenario.to_toml_us",
    "scenario.from_toml_us",
    "sweep.job_us_p50",
    "sweep.job_us_p99",
    "store.save_us",
    "store.load_us",
    "store.probe_us",
    "store.local_save_us",
    "store.local_load_us",
    "store.local_probe_us",
    "store.sha256_ns_per_byte",
    "store.bytes_written",
    "store.served",
    "store.computed",
    "metrics.on_round_ns",
    "sim.switches_per_ant_round",
    "sim.events_fired",
    "sim.trigger_firings",
    "trace.overhead_frac",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | available_parallelism={threads} \
         threads={threads} profile={profile} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
    );

    // Resolved at run time, under the directory the benchmark runs in.
    let out = PathBuf::from(".perfbench");
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");

    let mut report = Report::default();
    if args.trace {
        let tracer = std::sync::Arc::new(trace::Tracer::new());
        traced::run(
            args.workload,
            args.seed,
            threads,
            &scratch,
            &tracer,
            &mut report,
        );
        let dump = out.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_jsonl(&dump).expect("write the span dump");
        println!(
            "span self times (total ms, self ms, count) → all spans in {}",
            dump.display()
        );
        for (name, (total, own, count)) in tracer.self_times() {
            println!(
                "  {name:<40} {:>10.3} {:>10.3} {count:>8}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    } else {
        match args.workload {
            Workload::EnsembleStore => ensemble::run(args.seed, args.seconds, threads, &mut report),
            w => colony::run(w, args.seed, args.seconds, threads, &mut report),
        }
        report.value("peak_rss_mb", "MB", peak_rss_mb());
    }
    std::fs::remove_dir_all(&scratch).expect("remove the scratch directory");

    report.print_lines();
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json(names));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one array section of `BENCHMARK.json`.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        assert_eq!(names_in(&json, "end_to_end"), END_TO_END);
        assert_eq!(names_in(&json, "per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
    }
}
