//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all four) against the library defaults and prints
//! a host stamp, a table of every metric with its sample count, median and
//! quartiles, any findings, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer metrics, and writes the
//! benchmark's spans to `.bench_out/<workload>-seed<n>.trace.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use qukit_perfbench::report::{per_layer_names, Ctx, Report, END_TO_END};
use qukit_perfbench::trace::Recorder;
use qukit_perfbench::{dd, dense, device, host, svc, WORKLOADS};

/// Directory for journals and traces, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Runs one workload; `Err` means the run is invalid.
fn run_workload(name: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let outcome = match name {
        "svc_open" => svc::run(ctx, report),
        "device_noisy" => {
            device::run(ctx, report);
            Ok(())
        }
        "sv_dense" => {
            dense::run(ctx, report);
            Ok(())
        }
        "dd_sim" => {
            dd::run(ctx, report);
            Ok(())
        }
        other => unreachable!("unknown workload {other}"),
    };
    // Later workloads of an `all` run start with the library's
    // instrumentation off again.
    qukit_obs::set_enabled(false);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = host::qukit_env();
    if !env.is_empty() {
        let listed: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the library defaults",
            listed.join(" ")
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let stamp = host::HostStamp::collect();
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };

    let mut lines = Vec::new();
    for &name in &workloads {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds as f64,
            trace: args.trace,
            rec: Recorder::new(args.trace),
            out_dir: out_dir.clone(),
        };
        let mut report = Report::default();
        println!("# host {}", stamp.json(name, args.seed, args.seconds, args.trace));
        if let Err(e) = run_workload(name, &ctx, &mut report) {
            eprintln!("perfbench: {name}: invalid run: {e}");
            return ExitCode::from(3);
        }
        if !args.trace {
            // The process's peak so far: with `--workload all` it includes
            // the workloads run before this one.
            report.set("peak_rss_mb", "MB", host::peak_rss_mb(), vec![]);
        }
        print!("{}", report.table());
        for note in &report.notes {
            println!("# {note}");
        }
        for wrong in &report.wrong {
            println!("# WRONG: {wrong}");
        }
        if args.trace {
            let path = out_dir.join(format!("{name}-seed{}.trace.json", args.seed));
            match std::fs::write(&path, ctx.rec.chrome_json()) {
                Ok(()) => println!("# trace: {} spans in {}", ctx.rec.len(), path.display()),
                Err(e) => println!("# trace not written: {e}"),
            }
        }
        lines.push((name, report.result_json(&names, args.trace)));
    }
    if let [(_, line)] = lines.as_slice() {
        println!("{line}");
    } else {
        // `all`: one object per workload, keyed by workload name.
        let body: Vec<String> =
            lines.iter().map(|(name, line)| format!("\"{name}\":{line}")).collect();
        println!("{{{}}}", body.join(","));
    }
    ExitCode::SUCCESS
}
