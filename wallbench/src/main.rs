//! Wall-clock benchmark of the BlinkDB reproduction.
//!
//! ```text
//! wallbench --workload <adhoc_core|service_mix|ingest_live|tpch_join>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's context as `context {...}`, then as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Results and spans are also written under `.wallbench/`
//! in the working directory.

mod check;
mod layers;
mod measure;
mod workloads;

use measure::{host_context, json_str, metrics_json, write_spans};
use std::path::PathBuf;
use workloads::Args;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["adhoc_core", "service_mix", "ingest_live", "tpch_join"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let out = PathBuf::from(".wallbench");
    Ok(Args {
        scratch: out.join(format!("scratch-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = workloads::run(&args);
    let _ = std::fs::remove_dir_all(&args.scratch);

    let mut context = outcome.context.clone();
    for (k, v) in host_context() {
        context.insert(k.into(), v);
    }
    context.insert("workload".into(), args.workload.clone());
    context.insert("seed".into(), args.seed.to_string());
    context.insert("seconds".into(), args.seconds.to_string());
    context.insert("trace".into(), (args.trace as u8).to_string());
    let context_json = format!(
        "{{{}}}",
        context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for f in &outcome.failures {
        eprintln!("wallbench: {f}");
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let out = PathBuf::from(".wallbench");
    let _ = std::fs::create_dir_all(&out);
    let record = format!(
        "{{\"context\": {context_json}, \"end_to_end\": {}, \"per_layer\": {}, \"result\": {result}}}\n",
        metrics_json(&outcome.end_to_end),
        metrics_json(&outcome.layers)
    );
    if let Err(e) = std::fs::write(out.join(format!("{stem}.json")), record) {
        eprintln!("wallbench: writing the result record: {e}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = out.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = write_spans(&path, &tracer.spans()) {
            eprintln!("wallbench: writing spans: {e}");
        }
    }
    for (name, (value, unit)) in &outcome.end_to_end {
        println!(
            "{:<40} {value:>14.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    for (name, (value, unit)) in &outcome.layers {
        println!(
            "{:<40} {value:>14.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    println!("context {context_json}");
    println!("{result}");
}
