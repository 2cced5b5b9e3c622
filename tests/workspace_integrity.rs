//! Guards the build system itself: every crate under `crates/` must be a
//! workspace member, every repo-level test/example must be registered on the
//! facade, and the four criterion benches must be wired with
//! `harness = false`. A new crate or test file that is silently left out of
//! the workspace would otherwise never be compiled by CI.
//!
//! Each subsystem's named surface (docs sections, facade re-exports, bench
//! and gate entries, CI steps) is pinned by a table of `(file, needles,
//! why)` rows that `check_pins` walks; the structural checks — workspace
//! globs, registrations, bench harnesses, README coverage — stay as code.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const CI: &str = ".github/workflows/ci.yml";
const BENCH_GATE: &str = "crates/bench/src/bin/bench_gate.rs";
const ANALYZER_RULES: &str = "crates/analyzer/src/rules.rs";

/// One prose pin: the file (relative to the repo root) must contain every
/// needle, or the check fails with the reason.
type Pin = (&'static str, &'static [&'static str], &'static str);

fn repo_root() -> PathBuf {
    // This test is registered on the `lens` facade at crates/lens, so the
    // workspace root is two levels up from its manifest dir.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lens has a grandparent")
        .to_path_buf()
}

fn list_dir(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .collect()
}

/// Reads a file relative to the repo root.
fn read(path: &str) -> String {
    fs::read_to_string(repo_root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Checks every needle of every pin, reading each file once.
fn check_pins(pins: &[Pin]) {
    let mut files = BTreeMap::new();
    for &(file, needles, why) in pins {
        let body = files.entry(file).or_insert_with(|| read(file));
        for needle in needles {
            assert!(body.contains(needle), "{file} lacks {needle:?}: {why}");
        }
    }
}

/// Asserts that the `"section"` object of a bench baseline JSON (up to its
/// first closing brace) carries every key the gate reads.
fn assert_baseline_section(file: &str, section: &str, keys: &[&str]) {
    let json = read(file);
    let at = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{file} missing {section}"));
    let body = &json[at..at + json[at..].find('}').unwrap()];
    for key in keys {
        assert!(body.contains(key), "{file} {section} must record {key}");
    }
}

#[test]
fn every_crate_dir_is_a_workspace_member() {
    let root = repo_root();
    let root_manifest =
        fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    assert!(
        root_manifest.contains("\"crates/*\""),
        "root manifest must glob crates/* as workspace members"
    );
    assert!(
        root_manifest.contains("\"shims/*\""),
        "root manifest must glob shims/* (offline dependency shims)"
    );

    // The glob only picks up directories that contain a manifest; make sure
    // no crate directory is silently skipped for lacking one.
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let manifest = crate_dir.join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "{} has no Cargo.toml — it would be silently excluded from the workspace",
            crate_dir.display()
        );
        let body = fs::read_to_string(&manifest).expect("crate manifest readable");
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let expected = if dir_name == "lens" {
            "name = \"lens\"".to_string()
        } else {
            format!("name = \"lens-{dir_name}\"")
        };
        assert!(
            body.contains(&expected),
            "{} should declare package {expected}",
            manifest.display()
        );
    }
}

#[test]
fn workspace_dependency_table_covers_all_crates() {
    let root = repo_root();
    let root_manifest =
        fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let pkg = if dir_name == "lens" {
            "lens".to_string()
        } else {
            format!("lens-{dir_name}")
        };
        if pkg == "lens-bench" {
            // Leaf crate: nothing depends on it, so no workspace.dependencies
            // entry is required.
            continue;
        }
        assert!(
            root_manifest.contains(&format!("{pkg} = {{ path = \"crates/{dir_name}\"")),
            "[workspace.dependencies] is missing {pkg}"
        );
    }
}

#[test]
fn repo_level_tests_and_examples_are_registered() {
    let root = repo_root();
    let facade_manifest =
        fs::read_to_string(root.join("crates/lens/Cargo.toml")).expect("facade manifest");

    let stems = |dir: &str| -> BTreeSet<String> {
        list_dir(&root.join(dir))
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().to_string())
            .collect()
    };

    // Match on the registered path, not the target name: a [[test]] and a
    // [[example]] sharing a stem must not mask each other.
    for test in stems("tests") {
        assert!(
            facade_manifest.contains(&format!("path = \"../../tests/{test}.rs\"")),
            "tests/{test}.rs is not registered as a [[test]] on the lens facade"
        );
    }
    for example in stems("examples") {
        assert!(
            facade_manifest.contains(&format!("path = \"../../examples/{example}.rs\"")),
            "examples/{example}.rs is not registered as a [[example]] on the lens facade"
        );
    }
}

#[test]
fn criterion_benches_are_registered_without_default_harness() {
    let root = repo_root();
    let bench_manifest =
        fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("bench manifest");
    for bench in list_dir(&root.join("crates/bench/benches")) {
        if bench.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = bench.file_stem().unwrap().to_string_lossy().to_string();
        let needle = format!("name = \"{stem}\"");
        let idx = bench_manifest
            .find(&needle)
            .unwrap_or_else(|| panic!("bench {stem} missing from [[bench]] entries"));
        let after = &bench_manifest[idx..];
        let entry_end = after[1..].find("[[").map(|i| i + 1).unwrap_or(after.len());
        assert!(
            after[..entry_end].contains("harness = false"),
            "bench {stem} must set harness = false for criterion"
        );
    }
}

/// The generic stem-scanning tests above catch *unregistered* files; this
/// pins the fleet subsystem's surface by name so a rename or accidental
/// deletion of any piece (crate, facade re-export, bench, example, test)
/// fails loudly rather than silently shrinking coverage.
#[test]
fn fleet_subsystem_is_fully_registered() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("Cargo.toml", &["lens-fleet = { path = \"crates/fleet\""], "[workspace.dependencies] must carry lens-fleet"),
        ("crates/lens/Cargo.toml", &["lens-fleet = { workspace = true }"], "the facade must depend on lens-fleet"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/fleet_scaleout.rs\""], "fleet_scaleout example must be registered on the facade"),
        ("crates/lens/Cargo.toml", &["path = \"../../tests/fleet_sim.rs\""], "fleet_sim test must be registered on the facade"),
        ("crates/lens/src/lib.rs", &["pub use lens_fleet as fleet;"], "the facade must re-export lens-fleet"),
        ("crates/bench/Cargo.toml", &["name = \"fleet_step\""], "fleet_step bench must be registered"),
    ];
    check_pins(PINS);
}

/// Pins the batched-serving-tier surface added with the docs pass: the
/// `docs/` directory, its README links, and the `cloud_batching` example.
#[test]
fn docs_and_cloud_batching_example_are_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("docs/ARCHITECTURE.md", &["Determinism contract"], "docs/ARCHITECTURE.md must document the determinism contract"),
        ("docs/ARCHITECTURE.md", &["batch-close"], "docs/ARCHITECTURE.md must walk through the serving tier's batch-close events"),
        ("docs/PAPER_MAP.md", &["lens-num", "lens-nn", "lens-space", "lens-wireless", "lens-device", "lens-gp", "lens-pareto", "lens-accuracy", "lens-runtime", "lens-fleet", "lens-core", "lens-bench"], "docs/PAPER_MAP.md must cover every library crate"),
        ("README.md", &["docs/ARCHITECTURE.md", "docs/PAPER_MAP.md"], "README must link both docs"),
        ("crates/fleet/src/lib.rs", &["docs/ARCHITECTURE.md"], "lens-fleet rustdoc must point at docs/ARCHITECTURE.md"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/cloud_batching.rs\""], "cloud_batching example must be registered on the facade"),
        ("crates/bench/benches/BENCH_fleet.json", &["batch_close"], "BENCH_fleet.json must record the batch_close bench"),
    ];
    check_pins(PINS);
}

/// Pins the per-request microsimulation surface: the fidelity knob, the
/// tail-reporting docs, the `tail_latency` example, the `per_request`
/// bench record, and its CI smoke-run.
#[test]
fn per_request_microsim_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("docs/ARCHITECTURE.md", &["Cloud fidelity modes"], "docs/ARCHITECTURE.md must document the fidelity modes"),
        ("docs/ARCHITECTURE.md", &["PerRequest"], "docs/ARCHITECTURE.md must cover CloudSimFidelity::PerRequest"),
        ("docs/ARCHITECTURE.md", &["slot-free events run first"], "docs/ARCHITECTURE.md must document intra-epoch event ordering"),
        ("docs/ARCHITECTURE.md", &["books every served inference at serve time"], "docs/ARCHITECTURE.md must say where a per-request offload is booked"),
        ("docs/PAPER_MAP.md", &["RegionMicrosim"], "docs/PAPER_MAP.md must map the latency model to the per-request microsim"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/tail_latency.rs\""], "tail_latency example must be registered on the facade"),
        ("crates/bench/benches/fleet_step.rs", &["per_request/10000"], "fleet_step bench must measure the per-request path"),
        ("crates/bench/benches/BENCH_fleet.json", &["per_request/10000"], "BENCH_fleet.json must record the per_request bench"),
        (CI, &["examples/*.rs"], "CI must smoke-run tail_latency via the matrixed examples step"),
    ];
    check_pins(PINS);
}

#[test]
fn ci_gates_docs_and_fleet_smoke_run() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        (CI, &["cargo doc --workspace --no-deps"], "CI must build rustdoc for the workspace"),
        (CI, &["RUSTDOCFLAGS: \"-D warnings\""], "CI rustdoc step must deny warnings (broken intra-doc links fail)"),
        (CI, &["cargo test --doc --workspace"], "CI must run doctests explicitly"),
        // The four copy-pasted per-example steps collapsed into one
        // matrixed loop: every file under examples/ is smoke-run in
        // release, so new examples (fleet_scaleout, cloud_batching,
        // autoscale_cost, …) are covered without editing the workflow.
        (CI, &["for src in examples/*.rs", "cargo run --example \"$example\" --release --locked"], "CI must smoke-run every example via the matrixed loop step"),
    ];
    check_pins(PINS);
}

#[test]
fn ci_workflow_is_structured_for_scale() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        (CI, &["concurrency:", "cancel-in-progress: true"], "CI must cancel superseded runs per ref"),
    ];
    check_pins(PINS);
    // Every job carries a timeout so a hung step cannot pin a runner for
    // the default six hours.
    let ci = read(CI);
    let jobs = ci.matches("runs-on:").count();
    let timeouts = ci.matches("timeout-minutes:").count();
    assert!(jobs >= 3, "expected the three-job workflow, found {jobs}");
    assert_eq!(
        jobs, timeouts,
        "every CI job must set timeout-minutes ({jobs} jobs, {timeouts} timeouts)"
    );
}

/// Pins the autoscaling, cost-aware serving surface (PR 5): the doc
/// sections, the `autoscale_cost` example, the bench-regression gate (bin
/// + CI job + baselines), and the release-mode determinism job.
#[test]
fn autoscaling_and_bench_gate_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("docs/ARCHITECTURE.md", &["Autoscaling"], "docs/ARCHITECTURE.md must document the autoscaler state machine"),
        ("docs/ARCHITECTURE.md", &["drain → scale → publish"], "docs/ARCHITECTURE.md must document the barrier-phase ordering"),
        ("docs/ARCHITECTURE.md", &["CostAware"], "docs/ARCHITECTURE.md must document cost-aware dispatch"),
        ("docs/PAPER_MAP.md", &["price × energy"], "docs/PAPER_MAP.md must map L_cloud to the price × energy objective"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/autoscale_cost.rs\""], "autoscale_cost example must be registered on the facade"),
        // The bench-regression gate: the in-process gate binary exists,
        // CI runs it as its own job, and the fleet baselines carry the
        // records it reads plus the new autoscaled bench.
        (BENCH_GATE, &["run/10000", "per_request/10000", "hypervolume_3d"], "bench_gate must gate the fleet and Pareto paths"),
        ("crates/bench/benches/fleet_step.rs", &["run_autoscaled/10000"], "fleet_step bench must measure the autoscaled path"),
        ("crates/bench/benches/BENCH_fleet.json", &["run_autoscaled/10000"], "BENCH_fleet.json must record the autoscaled bench"),
        (CI, &["cargo run --release -p lens-bench --bin bench_gate"], "CI must run the bench-regression gate"),
        (CI, &["cargo test --release -q --locked -p lens --test fleet_sim"], "CI must run the fleet determinism tests in release mode"),
    ];
    check_pins(PINS);
    // Gate and benches must build their workloads from the one shared
    // module — measuring a drifted copy would gate the wrong thing.
    for path in [
        BENCH_GATE,
        "crates/bench/benches/fleet_step.rs",
        "crates/bench/benches/pareto_update.rs",
    ] {
        let source = read(path);
        assert!(
            source.contains("lens_bench::workloads") || source.contains("workloads::"),
            "{path} must use the shared lens_bench::workloads definitions"
        );
    }
    for section in ["run/10000", "per_request/10000"] {
        assert_baseline_section(
            "crates/bench/benches/BENCH_fleet.json",
            section,
            &["after_ns_per_inference_event"],
        );
    }
}

/// Pins the determinism-auditor surface (PR 6): the `lens-analyzer`
/// crate, its CI job, the workspace-lints table, the forbid(unsafe_code)
/// attribute in every non-bench crate root, the per-rule fixture trees,
/// the docs section, and the extended bench-gate paths.
#[test]
fn static_analysis_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        // CI runs the analyzer as its own job, in JSON mode so the log
        // is grep-able.
        (CI, &["cargo run -p lens-analyzer --locked -- --format json"], "CI must run the determinism audit"),
        ("Cargo.toml", &["[workspace.lints.rust]", "unsafe_code = \"deny\""], "root manifest must deny unsafe_code via [workspace.lints]"),
        ("Cargo.toml", &["lens-analyzer = { path = \"crates/analyzer\""], "[workspace.dependencies] must carry lens-analyzer"),
        ("crates/lens/Cargo.toml", &["path = \"../../tests/static_analysis.rs\""], "static_analysis test must be registered on the facade"),
        ("crates/lens/Cargo.toml", &["lens-analyzer = { workspace = true }"], "the facade must dev-depend on lens-analyzer"),
        // Docs: the rules are user-facing contract, not analyzer trivia.
        ("docs/ARCHITECTURE.md", &["Determinism rules"], "docs/ARCHITECTURE.md must document the audited rules"),
        ("docs/ARCHITECTURE.md", &["lens-analyzer: allow("], "docs/ARCHITECTURE.md must document the allowlist syntax"),
        ("README.md", &["lens-analyzer"], "README must point at the determinism auditor"),
        // The extended bench-gate surface: search-side paths are gated
        // too.
        (BENCH_GATE, &["build_front/5000", "gp/fit/300"], "bench_gate must gate the search-side paths"),
        ("crates/bench/benches/BENCH_pareto.json", &["build_front/5000", "gp/fit/300"], "BENCH_pareto.json must record a baseline for every gated search path"),
    ];
    check_pins(PINS);

    // Every crate opts into the workspace lints.
    let root = repo_root();
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).expect("crate manifest");
        assert!(
            manifest.contains("[lints]") && manifest.contains("workspace = true"),
            "{} must opt into [workspace.lints]",
            crate_dir.display()
        );
        // Belt and braces on top of the lint table: the attribute form is
        // what rule `forbid-unsafe` checks, so a crate cannot re-allow
        // unsafe locally without tripping the audit.
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        if dir_name != "bench" {
            let lib = fs::read_to_string(crate_dir.join("src/lib.rs")).expect("crate root");
            assert!(
                lib.contains("#![forbid(unsafe_code)]"),
                "crates/{dir_name}/src/lib.rs must carry #![forbid(unsafe_code)]"
            );
        }
    }

    // One fixture tree per rule.
    for rule in [
        "unordered-collections",
        "wall-clock",
        "float-accumulation",
        "truncating-cast",
        "forbid-unsafe",
        "thread-confinement",
        "ambient-entropy",
    ] {
        assert!(
            root.join("crates/analyzer/fixtures").join(rule).is_dir(),
            "fixture tree for rule {rule} is missing"
        );
    }
}

/// Pins the observability surface (PR 7): the `lens-telemetry` crate,
/// its wiring through the fleet engine, the `flight_recorder` example,
/// the analyzer's extended rule scope + fixture, the traced bench-gate
/// entry, the docs section, and the CI trace-validation step.
#[test]
fn observability_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        // The crate exists, is dependency-free, and is wired into the
        // fleet.
        ("crates/telemetry/Cargo.toml", &["name = \"lens-telemetry\""], "crates/telemetry must declare package lens-telemetry"),
        ("Cargo.toml", &["lens-telemetry = { path = \"crates/telemetry\""], "[workspace.dependencies] must carry lens-telemetry"),
        ("crates/fleet/Cargo.toml", &["lens-telemetry = { workspace = true }"], "lens-fleet must depend on lens-telemetry"),
        ("crates/fleet/src/lib.rs", &["pub use lens_telemetry::"], "lens-fleet must re-export the telemetry surface"),
        ("crates/lens/src/lib.rs", &["pub use lens_telemetry as telemetry;"], "the facade must re-export lens-telemetry"),
        // The example records a run and dumps both export formats.
        ("crates/lens/Cargo.toml", &["path = \"../../examples/flight_recorder.rs\""], "flight_recorder example must be registered on the facade"),
        ("examples/flight_recorder.rs", &["run_traced", "to_chrome_trace"], "flight_recorder must exercise run_traced and the Chrome export"),
        // The analyzer's rule surface covers the telemetry crate (its
        // seeded fixture is checked below).
        (ANALYZER_RULES, &["loc.crate_dir == \"telemetry\""], "the numeric analyzer rules must scope to crates/telemetry"),
        // Benches: the traced run is measured and gated, and the
        // untraced run keeps its (disabled-sink) baseline entry.
        ("crates/bench/benches/fleet_step.rs", &["run_traced/10000"], "fleet_step bench must measure the traced path"),
        (BENCH_GATE, &["fleet/run_traced/10000"], "bench_gate must gate the traced run"),
        // Docs and the shard-invariance pins.
        ("docs/ARCHITECTURE.md", &["## Observability"], "docs/ARCHITECTURE.md must document the observability layer"),
        ("docs/ARCHITECTURE.md", &["Sink", "FlightRecorder", "trace_event", "PhaseProbe"], "docs/ARCHITECTURE.md Observability section must name its pieces"),
        ("README.md", &["lens-telemetry"], "README must point at the telemetry crate"),
        ("docs/PAPER_MAP.md", &["lens-telemetry"], "docs/PAPER_MAP.md must cover lens-telemetry"),
        ("tests/fleet_sim.rs", &["trace_digest", "metrics_digest"], "tests/fleet_sim.rs must pin the trace and metrics digests"),
        // CI validates the emitted Chrome trace after the example loop.
        (CI, &["target/flight_recorder/trace.json"], "CI must validate the flight_recorder Chrome trace output"),
    ];
    check_pins(PINS);
    assert!(
        repo_root()
            .join("crates/analyzer/fixtures/telemetry-wall-clock")
            .is_dir(),
        "telemetry wall-clock fixture tree is missing"
    );
    for section in ["run/10000", "run_traced/10000"] {
        assert_baseline_section(
            "crates/bench/benches/BENCH_fleet.json",
            section,
            &["after_ns_per_inference_event"],
        );
    }
}

/// Pins the closed tail-latency loop surface (PR 8): the workload-curve
/// scenario knob, the tail-targeting scaling signal, the published p99 +
/// device retreat path, the `closed_loop` regression suite, the
/// `flash_crowd` example, the bench + gate entries, the analyzer scope
/// extension, the docs sections, and the CI release-determinism step.
#[test]
fn closed_loop_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        // The three pieces of the loop live where the map says they do.
        ("crates/fleet/src/scenario.rs", &["pub struct WorkloadCurve", "CURVE_FP_SCALE"], "crates/fleet/src/scenario.rs must define the fixed-point WorkloadCurve"),
        ("crates/fleet/src/cloud.rs", &["TailLatency"], "crates/fleet/src/cloud.rs must define ScalingSignal::TailLatency"),
        ("crates/fleet/src/device.rs", &["RETREAT_SALT", "CURVE_SALT"], "device-side curve/retreat draws must use their own salted hash streams"),
        // Regression suite + example are registered and CI runs both.
        ("crates/lens/Cargo.toml", &["path = \"../../tests/closed_loop.rs\""], "closed_loop test must be registered on the facade"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/flash_crowd.rs\""], "flash_crowd example must be registered on the facade"),
        (CI, &["cargo test --release -q --locked -p lens --test closed_loop"], "CI must run the closed-loop suite in release mode"),
        // Bench + gate price the loop against a checked-in baseline.
        ("crates/bench/benches/fleet_step.rs", &["run_flash_crowd/10000"], "fleet_step bench must measure the closed loop"),
        (BENCH_GATE, &["run_flash_crowd/10000"], "bench_gate must gate the closed loop"),
        // The analyzer's float-accumulation scope covers the curve code.
        (ANALYZER_RULES, &["crates/fleet/src/scenario.rs"], "the float-accumulation rule must scope to crates/fleet/src/scenario.rs"),
        // Docs walk the loop end to end.
        ("docs/ARCHITECTURE.md", &["The closed tail-latency loop"], "docs/ARCHITECTURE.md must document the closed loop"),
        ("docs/ARCHITECTURE.md", &["WorkloadCurve", "TailLatency", "p99_ms", "retreat"], "docs/ARCHITECTURE.md closed-loop section must name its pieces"),
        ("docs/PAPER_MAP.md", &["WorkloadCurve"], "docs/PAPER_MAP.md must map the closed loop"),
    ];
    check_pins(PINS);
    assert_baseline_section(
        "crates/bench/benches/BENCH_fleet.json",
        "run_flash_crowd/10000",
        &["after_ns_per_inference_event"],
    );
    assert!(
        repo_root()
            .join("crates/analyzer/fixtures/workload-curve")
            .is_dir(),
        "workload-curve fixture tree is missing"
    );
}

#[test]
fn release_profile_is_tuned_for_benchmarking() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        ("Cargo.toml", &["[profile.release]"], "release profile tuning missing"),
        ("Cargo.toml", &["codegen-units = 1"], "release profile should pin codegen-units = 1"),
        ("Cargo.toml", &["lto"], "release profile should enable LTO"),
    ];
    check_pins(PINS);
}

/// Pins the parallel-barrier-replay / million-device-scale surface
/// (PR 9): the replay module and its doc section, the `ReplayMode`
/// knob, the scale row in the paper map, the `million_fleet` example
/// (CI smoke at 100 k devices rides the matrixed examples loop), and
/// the bench gate's single-retry policy.
#[test]
fn parallel_replay_and_scale_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        // The replay worker module exists and owns the scoped fan-out.
        ("crates/fleet/src/replay.rs", &["std::thread::scope"], "replay.rs must fan regions out over a scoped thread pool"),
        ("crates/fleet/src/scenario.rs", &["pub enum ReplayMode"], "the ReplayMode knob must live on the scenario"),
        // Docs: the ARCHITECTURE section and the PAPER_MAP scale row.
        ("docs/ARCHITECTURE.md", &["Parallel barrier replay"], "docs/ARCHITECTURE.md must document the parallel barrier replay"),
        ("docs/ARCHITECTURE.md", &["ReplayMode", "fixed region order", "crates/fleet/src/replay.rs"], "docs/ARCHITECTURE.md replay section must name its pieces"),
        ("docs/PAPER_MAP.md", &["million devices", "ReplayMode"], "docs/PAPER_MAP.md must carry the million-device scale row"),
        // The analyzer admits exactly the two sanctioned concurrency
        // sites.
        (ANALYZER_RULES, &["crates/fleet/src/engine.rs", "crates/fleet/src/replay.rs"], "thread-confinement must carve out engine.rs and replay.rs"),
        // The flagship scale example is registered and self-describing.
        ("crates/lens/Cargo.toml", &["path = \"../../examples/million_fleet.rs\""], "million_fleet example must be registered on the facade"),
        ("examples/million_fleet.rs", &["LENS_MILLION_FLEET_POP"], "million_fleet must scale its population via LENS_MILLION_FLEET_POP"),
        // The proptest pin: parallel replay ≡ sequential replay.
        ("tests/cross_crate_props.rs", &["ReplayMode::Sequential"], "cross_crate_props must pin parallel vs sequential replay"),
        // bench_gate earns one re-measure before failing.
        (BENCH_GATE, &["re-measured"], "bench_gate must re-measure once before declaring a regression"),
    ];
    check_pins(PINS);
}

/// Pins the staged split-inference pipeline surface (PR 10): the three
/// implementing modules, the `PIPELINES.md` walkthrough and its links,
/// the paper-map split-decision rows, the `split_pipeline` test/example
/// registrations, the `pipeline/10000` bench + gate + baseline, the
/// analyzer's transfer-pricing scope + fixture, and the CI
/// release-determinism step.
#[test]
fn staged_pipeline_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        // The three implementing modules live where the docs say they do.
        ("crates/space/src/staged.rs", &["pub struct StagedPlan"], "crates/space/src/staged.rs must define StagedPlan"),
        ("crates/wireless/src/transfer.rs", &["pub struct TransferModel"], "crates/wireless/src/transfer.rs must define TransferModel"),
        ("crates/fleet/src/pipeline.rs", &["pub struct PipelineSpec", "MAX_PIPELINE_DEPTH"], "crates/fleet/src/pipeline.rs must define PipelineSpec and its depth cap"),
        // The walkthrough document exists, covers the load-bearing
        // pieces, and is linked from the README, ARCHITECTURE, and the
        // fleet landing.
        ("docs/PIPELINES.md", &["StagedPlan", "TransferModel", "PipelineSpec", "(arrival_us, device_id, stage)", "one epoch later at the same epoch offset", "split_pipeline"], "docs/PIPELINES.md must cover the pipeline's load-bearing pieces"),
        ("README.md", &["docs/PIPELINES.md"], "README must link docs/PIPELINES.md"),
        ("docs/ARCHITECTURE.md", &["## Staged pipelines", "PIPELINES.md", "PipelineSpec"], "docs/ARCHITECTURE.md must carry the staged-pipelines section"),
        ("crates/fleet/src/lib.rs", &["Staged pipelines", "PIPELINES.md"], "the lens-fleet landing page must document staged pipelines"),
        // Paper map: the split-decision rows cite the related work that
        // motivates multi-cut placement.
        ("docs/PAPER_MAP.md", &["StagedPlan", "2111.02489", "2003.06464"], "docs/PAPER_MAP.md split rows must cite StagedPlan and its related work"),
        // Test + example are registered on the facade.
        ("crates/lens/Cargo.toml", &["path = \"../../tests/split_pipeline.rs\""], "split_pipeline test must be registered on the facade"),
        ("crates/lens/Cargo.toml", &["path = \"../../examples/split_pipeline.rs\""], "split_pipeline example must be registered on the facade"),
        // Bench + gate price the pipelined barrier against a checked-in
        // same-machine baseline.
        ("crates/bench/benches/fleet_step.rs", &["pipeline/10000"], "fleet_step bench must measure the pipelined path"),
        (BENCH_GATE, &["fleet/pipeline/10000"], "bench_gate must gate the pipelined run"),
        // The analyzer covers the two integer-pricing modules (its
        // seeded fixture is checked below).
        (ANALYZER_RULES, &["crates/wireless/src/transfer.rs", "crates/fleet/src/pipeline.rs"], "float-accumulation must scope to the transfer-pricing modules"),
        // CI runs the determinism suite in release mode (the example
        // smoke run rides the matrixed examples loop).
        (CI, &["cargo test --release -q --locked -p lens --test split_pipeline"], "CI must run the split-pipeline suite in release mode"),
    ];
    check_pins(PINS);
    assert_baseline_section(
        "crates/bench/benches/BENCH_fleet.json",
        "pipeline/10000",
        &["after_ns_per_inference_event"],
    );
    assert!(
        repo_root()
            .join("crates/analyzer/fixtures/transfer-pricing")
            .is_dir(),
        "transfer-pricing fixture tree is missing"
    );
}

/// Pins the search-surrogate surface: the explored-sequence pins run at
/// the full 300-iteration budget in the release CI job, `bench_gate`
/// gates a steady-state `suggest` next to the from-scratch fit, both from
/// the shared workload constructor, and the docs describe the shared,
/// row-appended factors under their real names.
#[test]
fn search_surrogate_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        (CI, &["cargo test --release -q --locked -p lens --test search_pin"], "CI must run the search pins at the full budget in release mode"),
        ("crates/lens/Cargo.toml", &["path = \"../../tests/search_pin.rs\""], "tests/search_pin.rs must be registered on the facade"),
        (BENCH_GATE, &["gp/fit/300", "gp/suggest/300"], "bench_gate must gate the fit and the steady-state suggest"),
        (BENCH_GATE, &["workloads::gp_suggest_state"], "bench_gate must build the suggest state from lens_bench::workloads"),
        ("crates/bench/benches/gp_fit.rs", &["gp_suggest_state"], "the gp_fit bench must build the suggest state from lens_bench::workloads"),
        ("docs/ARCHITECTURE.md", &["## Search surrogate cost"], "docs/ARCHITECTURE.md must explain where a search iteration's time goes"),
        ("docs/PAPER_MAP.md", &["lens-gp::mobo::MultiObjectiveOptimizer"], "docs/PAPER_MAP.md must name the MOBO driver by its real type"),
    ];
    check_pins(PINS);
    assert!(
        !read("docs/PAPER_MAP.md").contains("MoboDriver"),
        "docs/PAPER_MAP.md must not name the MOBO driver by a retired type"
    );
    assert_baseline_section(
        "crates/bench/benches/BENCH_pareto.json",
        "gp/suggest/300",
        &["\"before_ms\"", "\"after_ms\""],
    );
}

/// Pins the fleet digest surface: the absolute fleet pins run in the
/// release CI job and are registered on the facade, the wireless stream
/// pin runs next to them, and the architecture doc explains the
/// shard-step layout they protect.
#[test]
fn fleet_pin_surface_is_pinned() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        (CI, &["cargo test --release -q --locked -p lens --test fleet_pin"], "CI must run the fleet pins in release mode"),
        (CI, &["cargo test --release -q --locked -p lens-wireless"], "CI must run the stream ≡ synthesized-trace pin in release mode"),
        ("crates/lens/Cargo.toml", &["path = \"../../tests/fleet_pin.rs\""], "tests/fleet_pin.rs must be registered on the facade"),
        ("docs/ARCHITECTURE.md", &["shard-step layout"], "docs/ARCHITECTURE.md must explain the shard-step layout"),
    ];
    check_pins(PINS);
}

/// The benchmark crate lives outside the workspace, so only this CI step
/// compiles it: a public-API change that breaks it fails the build job.
#[test]
fn benchmark_crate_is_built_in_ci() {
    #[rustfmt::skip]
    const PINS: &[Pin] = &[
        (CI, &["cargo build --release --locked --manifest-path lensbench/Cargo.toml"], "CI must build lensbench/"),
    ];
    check_pins(PINS);
}

/// Anti-drift pin for the README's workspace inventory: every crate
/// directory and every example file must be mentioned by name. A new
/// crate or example that skips the README fails here instead of rotting
/// the "N crates / N examples" story the way lens-analyzer and the
/// example count once did.
#[test]
fn readme_names_every_crate_and_example() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");

    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let name = if dir_name == "lens" {
            "`lens`".to_string()
        } else {
            format!("lens-{dir_name}")
        };
        assert!(
            readme.contains(&name),
            "README must name crate {name} (workspace inventory drift)"
        );
    }

    for example in list_dir(&root.join("examples")) {
        if example.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = example.file_stem().unwrap().to_string_lossy().to_string();
        assert!(
            readme.contains(&stem),
            "README must name example {stem} (example inventory drift)"
        );
    }

    // The crate-count sentence must agree with the directory listing,
    // so the "Fourteen crates" drift cannot recur.
    let crate_count = list_dir(&root.join("crates"))
        .iter()
        .filter(|p| p.is_dir())
        .count();
    assert_eq!(
        crate_count, 15,
        "crate count changed — update README.md and docs/ARCHITECTURE.md \
         ('Fifteen crates') and this pin together"
    );
    assert!(
        readme.contains("Fifteen crates"),
        "README workspace-layout sentence must say 'Fifteen crates'"
    );
    assert!(
        fs::read_to_string(root.join("docs/ARCHITECTURE.md"))
            .expect("ARCHITECTURE.md exists")
            .contains("Fifteen crates"),
        "docs/ARCHITECTURE.md crate-DAG sentence must say 'Fifteen crates'"
    );
}
