//! The §3 analytical model against the full simulator: the DP's
//! optimum must lower-bound the simulator's network cycles for *every*
//! decision scheme, and feeding the DP's own decision schedule back
//! into the simulator must reproduce the bound exactly (when no
//! evictions perturb the single-thread assumption).

use em2::core::decision::{
    AlwaysMigrate, AlwaysRemote, Decision, DecisionScheme, DistanceThreshold, OracleSchedule,
};
use em2::core::machine::MachineConfig;
use em2::core::sim::run_em2ra;
use em2::model::CostModel;
use em2::optimal::{migrate_ra, Choice};
use em2::placement::FirstTouch;
use em2::trace::gen::synth::SynthConfig;
use em2::trace::Workload;

fn machine(cores: usize) -> MachineConfig {
    // Plenty of guest contexts: no evictions, so the per-thread DP
    // model matches the machine exactly.
    MachineConfig {
        guest_contexts: 64,
        ..MachineConfig::with_cores(cores)
    }
}

fn workload() -> Workload {
    SynthConfig {
        threads: 8,
        cores: 16,
        accesses_per_thread: 1_000,
        ..SynthConfig::default()
    }
    .generate()
}

#[test]
fn dp_lower_bounds_every_scheme_in_simulation() {
    let w = workload();
    let p = FirstTouch::build(&w, 16, 64);
    let cost = CostModel::builder().cores(16).build();
    let (opt, _) = migrate_ra::workload_optimal(&w, &p, &cost);

    let schemes: Vec<Box<dyn DecisionScheme>> = vec![
        Box::new(AlwaysMigrate),
        Box::new(AlwaysRemote),
        Box::new(DistanceThreshold { max_hops: 3 }),
    ];
    for s in schemes {
        let name = s.name();
        let r = run_em2ra(machine(16), &w, &p, s);
        assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        assert_eq!(
            r.flow.evictions, 0,
            "{name}: guest contexts sized to avoid evictions"
        );
        assert!(
            r.network_cycles >= opt,
            "{name}: simulator network cycles {} beat the DP bound {}",
            r.network_cycles,
            opt
        );
    }
}

#[test]
fn oracle_schedule_achieves_the_bound() {
    let w = workload();
    let p = FirstTouch::build(&w, 16, 64);
    let cost = CostModel::builder().cores(16).build();
    let (opt, per_thread) = migrate_ra::workload_optimal(&w, &p, &cost);

    // Convert each thread's optimal choice sequence into the decisions
    // the simulator will ask for (non-local accesses only).
    let schedule: Vec<Vec<Decision>> = per_thread
        .iter()
        .map(|o| {
            o.nonlocal_decisions()
                .into_iter()
                .map(|c| match c {
                    Choice::Migrate => Decision::Migrate,
                    Choice::Remote => Decision::Remote,
                    Choice::Local => unreachable!("filtered"),
                })
                .collect()
        })
        .collect();
    let r = run_em2ra(machine(16), &w, &p, Box::new(OracleSchedule::new(schedule)));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(
        r.network_cycles, opt,
        "replaying the DP schedule must reproduce the DP cost exactly"
    );
}

#[test]
fn dp_on_ocean_beats_both_pure_machines() {
    let w = em2::trace::gen::ocean::OceanConfig::small().generate();
    let p = FirstTouch::build(&w, 4, 64);
    let cost = CostModel::builder().cores(4).build();
    let (opt, _) = migrate_ra::workload_optimal(&w, &p, &cost);

    let mig = run_em2ra(machine(4), &w, &p, Box::new(AlwaysMigrate));
    let ra = run_em2ra(machine(4), &w, &p, Box::new(AlwaysRemote));
    assert!(opt <= mig.network_cycles);
    assert!(opt <= ra.network_cycles);
    // Figure 2's bimodality means the optimum strictly beats both pure
    // strategies: neither all-migrate nor all-RA is right for OCEAN.
    assert!(
        opt < mig.network_cycles && opt < ra.network_cycles,
        "optimal {} vs migrate {} vs remote {}",
        opt,
        mig.network_cycles,
        ra.network_cycles
    );
}
