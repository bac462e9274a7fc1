//! The parallel projection engine's central guarantee: the projection a
//! user sees is bit-identical to the serial exhaustive search — at any
//! thread count, through either kernel search (`SearchOpts::Fast`, the
//! production path, and `SearchOpts::Exhaustive`, the oracle).
//!
//! `Debug` for `f64` prints the shortest string that round-trips, so two
//! projections render identically iff every float in them has the same
//! bits.

use gpp_gpu_model::{project_all, project_best_with, SearchOpts};
use gpp_workloads::paper_cases;
use grophecy::machine::MachineConfig;
use grophecy::projector::Grophecy;

const SEED: u64 = 2013;

#[test]
fn projections_are_bit_identical_across_thread_counts_and_options() {
    let machine = MachineConfig::anl_eureka_node(SEED);
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);

    for case in paper_cases() {
        // The reference: the exact serial seed code path.
        gpp_par::set_threads(1);
        let reference = format!(
            "{:?}",
            gro.project_with(&case.program, &case.hints, SearchOpts::Exhaustive)
        );
        for threads in [1, 2, 8] {
            gpp_par::set_threads(threads);
            for opts in [SearchOpts::Exhaustive, SearchOpts::Fast] {
                let got = format!("{:?}", gro.project_with(&case.program, &case.hints, opts));
                assert_eq!(
                    got, reference,
                    "{} {}: {:?} projection at {} threads diverged from serial",
                    case.app, case.dataset, opts, threads
                );
            }
        }
        gpp_par::set_threads(0);
    }
}

/// The fault-injection hooks must be invisible when no plan is armed: an
/// empty plan routed through the fault-aware calibration path must yield
/// a projector and projections bit-identical to the plain path — same RNG
/// draws, same floats, same everything.
#[test]
fn empty_fault_plan_is_bit_identical_to_plain_path() {
    use gpp_fault::{FaultInjector, FaultPlan};
    use std::sync::Arc;

    let machine = MachineConfig::anl_eureka_node(SEED);

    let mut plain_node = machine.node();
    let plain = Grophecy::calibrate(&machine, &mut plain_node);

    let mut faulty_node = machine.node();
    let injector = Arc::new(FaultInjector::new(FaultPlan::empty()));
    let faulty = Grophecy::try_calibrate(&machine, &mut faulty_node, injector.clone())
        .expect("empty plan cannot fail calibration");

    assert_eq!(injector.total_fired(), 0);
    assert_eq!(
        plain.pcie_model().h2d.alpha.to_bits(),
        faulty.pcie_model().h2d.alpha.to_bits()
    );
    assert_eq!(
        plain.pcie_model().h2d.beta.to_bits(),
        faulty.pcie_model().h2d.beta.to_bits()
    );
    assert_eq!(
        plain.pcie_model().d2h.alpha.to_bits(),
        faulty.pcie_model().d2h.alpha.to_bits()
    );
    assert_eq!(
        plain.pcie_model().d2h.beta.to_bits(),
        faulty.pcie_model().d2h.beta.to_bits()
    );

    for case in paper_cases() {
        let want = format!("{:?}", plain.project(&case.program, &case.hints));
        let got = format!("{:?}", faulty.project(&case.program, &case.hints));
        assert_eq!(
            got, want,
            "{} {}: projection through the empty-plan path diverged",
            case.app, case.dataset
        );
    }
}

#[test]
fn both_searches_select_the_best_config_of_the_full_report() {
    let spec = MachineConfig::anl_eureka_node(SEED).gpu_spec;
    for case in paper_cases() {
        for kernel in &case.program.kernels {
            for axis in kernel.axis_candidates() {
                let chars = kernel.characteristics_with_axis(&case.program, axis);
                let (report_best, _) = project_all(&kernel.name, &chars, &spec);
                for opts in [SearchOpts::Fast, SearchOpts::Exhaustive] {
                    let best = project_best_with(&kernel.name, &chars, &spec, opts);
                    assert_eq!(
                        format!("{:?}", best),
                        format!("{:?}", report_best),
                        "{} {} kernel {}: {:?} changed the selected best",
                        case.app,
                        case.dataset,
                        kernel.name,
                        opts
                    );
                }
            }
        }
    }
}
