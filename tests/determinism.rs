//! Reproducibility: a test suite whose purpose is producing *known* timing
//! patterns must produce bit-identical traces across runs — the property
//! the paper's wall-clock calibration could only approximate, strengthened
//! here by virtual time.

use ats::harness::{run_single, ParamValue, ParamValues, RunOpts};
use ats::trace::Trace;

fn canonical(mut t: Trace) -> Trace {
    t.canonicalize();
    t
}

#[test]
fn every_catalog_trace_is_bit_reproducible() {
    let opts = RunOpts::default().procs(4);
    for spec in ats::core::CATALOG.iter() {
        let mut params = ParamValues::defaults(spec);
        params.set("r", ParamValue::Count(2));
        let a = canonical(run_single(spec.name, &params, &opts).unwrap());
        let b = canonical(run_single(spec.name, &params, &opts).unwrap());
        assert_eq!(a.regions, b.regions, "{}: region tables differ", spec.name);
        assert_eq!(a.comms, b.comms, "{}: comm defs differ", spec.name);
        assert_eq!(
            a.locations, b.locations,
            "{}: event streams differ",
            spec.name
        );
    }
}

#[test]
fn contention_totals_are_stable_even_if_order_is_not() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    // Catalog defaults: t = 4 threads, bodywork b = 0.01 s, no outside
    // work, r = 3 visits. Contenders take the lock in virtual-time order,
    // so the first round waits b·(0 + 1 + … + t−1) and each later round
    // b·(t−1) per thread: b·t(t−1)(r−½) = 0.30 s in total, on every run.
    // Both contention flavors report as OmpCriticalContention.
    for name in ["omp_critical_contention", "omp_lock_contention"] {
        let spec = ats::core::catalog::find(name).unwrap();
        let params = ParamValues::defaults(spec);
        let opts = RunOpts::default().procs(2);
        for _ in 0..3 {
            let trace = run_single(name, &params, &opts).unwrap();
            let report = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
            let total: f64 = report
                .findings_for("OmpCriticalContention")
                .iter()
                .map(|f| f.wait.as_secs())
                .sum();
            assert!(
                (total - 0.30).abs() < 1e-9,
                "{name}: contention total {total} s, expected 0.30 s"
            );
        }
    }
}

#[test]
fn seeds_do_not_leak_into_virtual_time() {
    // Virtual timestamps are pure functions of the program; the RNG seed
    // only affects real-mode memory access patterns.
    let spec = ats::core::catalog::find("late_broadcast").unwrap();
    let params = ParamValues::defaults(spec);
    let a = canonical(
        run_single(
            spec.name,
            &params,
            &RunOpts {
                seed: 1,
                ..RunOpts::default().procs(4)
            },
        )
        .unwrap(),
    );
    let b = canonical(
        run_single(
            spec.name,
            &params,
            &RunOpts {
                seed: 0xDEAD_BEEF,
                ..RunOpts::default().procs(4)
            },
        )
        .unwrap(),
    );
    assert_eq!(a.locations, b.locations);
}

/// Tentpole parity: the discrete-event scheduler must be invisible in the
/// results — byte-identical ATSB traces and identical analyzer reports to
/// the one-OS-thread-per-rank backend, across a catalog sample. The hybrid
/// entries run their OpenMP teams nested in a rank coroutine on the event
/// backend and at top level on a rank thread on the thread backend.
#[test]
fn event_and_thread_backends_produce_identical_atsb_bytes() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    use ats::mpi::SimBackend;
    let sample = [
        "late_sender",
        "late_receiver",
        "imbalance_at_mpi_barrier",
        "late_broadcast",
        "early_reduce",
        "messages_in_wrong_order",
        "imbalance_at_mpi_alltoall",
        "balanced_ring",
        "omp_imbalance_at_mpi_barrier",
        "mpi_in_omp_serial",
    ];
    let mut runs: Vec<(&str, Trace, Trace)> = sample
        .iter()
        .map(|&name| {
            let spec = ats::core::catalog::find(name).unwrap();
            let mut params = ParamValues::defaults(spec);
            params.set("r", ParamValue::Count(2));
            let run_on = |backend: SimBackend| {
                canonical(
                    run_single(name, &params, &RunOpts::default().procs(8).backend(backend))
                        .unwrap(),
                )
            };
            (name, run_on(SimBackend::Event), run_on(SimBackend::Thread))
        })
        .collect();
    // Not a catalog entry: teams nested in the members of an outer team.
    let nested_on = |backend: SimBackend| {
        canonical(ats::mpi::run(
            ats::mpi::SimConfig::with_procs(8).backend(backend),
            |p| {
                let world = p.comm_world();
                let df = ats::core::Distr::linear(0.001, 0.004);
                ats::core::properties::hybrid::nested_omp_imbalance(p, 2, 3, &df, 2, &world);
            },
        ))
    };
    runs.push((
        "nested_omp_imbalance",
        nested_on(SimBackend::Event),
        nested_on(SimBackend::Thread),
    ));
    for (name, event, thread) in runs {
        assert_eq!(
            ats::trace::binfmt::encode(&event),
            ats::trace::binfmt::encode(&thread),
            "{name}: ATSB bytes differ between backends"
        );
        let report_on = |t: &Trace| analyze(t, &AnalyzerConfig::default()).to_json();
        assert_eq!(
            report_on(&event),
            report_on(&thread),
            "{name}: analyzer reports differ between backends"
        );
    }
}

/// Backend parity holds through the experiment engine at any worker
/// count: rows are byte-identical for (event, thread) × (jobs 1, jobs 8).
#[test]
fn backend_parity_holds_for_any_jobs_value() {
    use ats::harness::experiment::{Experiment, Sweep};
    use ats::mpi::SimBackend;
    let rows = |backend: SimBackend, jobs: usize| {
        let (rows, stats) = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
            .procs_grid([2, 4])
            .opts(RunOpts::default().backend(backend).jobs(jobs))
            .run_with_stats()
            .unwrap();
        assert_eq!(stats.backend, backend.effective().label());
        rows
    };
    let baseline = rows(SimBackend::Event, 1);
    for (backend, jobs) in [
        (SimBackend::Event, 8),
        (SimBackend::Thread, 1),
        (SimBackend::Thread, 8),
    ] {
        assert_eq!(
            baseline,
            rows(backend, jobs),
            "{}/jobs={jobs} diverges from event/jobs=1",
            backend.label()
        );
    }
}

#[test]
fn composites_are_reproducible() {
    use ats::core::{composite, CompositeParams};
    use ats::mpi::SimConfig;
    let params = CompositeParams {
        basework: 0.002,
        extrawork: 0.008,
        reps: 1,
        ..Default::default()
    };
    let run = || {
        let params = params.clone();
        canonical(ats::mpi::run(SimConfig::with_procs(8), move |p| {
            let world = p.comm_world();
            composite::two_communicator_composite(p, &params, &world);
        }))
    };
    let a = run();
    let b = run();
    assert_eq!(a.locations, b.locations);
    assert_eq!(a.comms, b.comms);
}
