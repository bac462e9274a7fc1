//! The fast kernel search (`SearchOpts::Fast`) against the committed
//! artifact corpus: every skeleton in `skeletons/` × every machine
//! datasheet in `fixtures/machines/` (plus the built-ins), at several
//! thread counts, must project bit-identically to the serial exhaustive
//! oracle (`SearchOpts::Exhaustive`).
//!
//! `determinism.rs` proves the same property over the synthetic paper
//! workloads; this suite proves it over the artifacts users actually
//! feed the tools — skeleton files parsed from text and machines loaded
//! from `.gmach` datasheets (including the replay-bus one with its
//! sidecar trace). Adding a skeleton or a datasheet to the repository
//! automatically widens the corpus.
//!
//! `Debug` for `f64` prints the shortest string that round-trips, so two
//! projections render identically iff every float in them has the same
//! bits.

use gpp_datausage::Hints;
use gpp_gpu_model::SearchOpts;
use gpp_skeleton::text;
use grophecy::projector::Grophecy;
use grophecy::MachineRegistry;
use std::path::{Path, PathBuf};

const SEED: u64 = 2013;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn committed_skeletons() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join("skeletons"))
        .expect("skeletons/ directory")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "gsk"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed skeletons found");
    paths
}

#[test]
fn soa_projection_is_bit_identical_over_the_committed_corpus() {
    let mut registry = MachineRegistry::builtin();
    registry
        .load_dir(&repo_root().join("fixtures/machines"))
        .expect("fixtures/machines datasheets load");
    assert!(registry.len() >= 4, "expected builtins plus datasheets");

    let skeletons: Vec<(PathBuf, gpp_skeleton::Program)> = committed_skeletons()
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("read skeleton");
            let program = text::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, program)
        })
        .collect();

    for name in registry.names() {
        let machine = registry.config(&name, SEED).unwrap();
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        for (path, program) in &skeletons {
            let hints = Hints::for_program(program);

            // The reference: the exact serial seed code path.
            gpp_par::set_threads(1);
            let reference = format!(
                "{:?}",
                gro.project_with(program, &hints, SearchOpts::Exhaustive)
            );

            for threads in [1, 2, 8] {
                gpp_par::set_threads(threads);
                let got = format!("{:?}", gro.project_with(program, &hints, SearchOpts::Fast));
                assert_eq!(
                    got,
                    reference,
                    "{} on `{name}`: fast projection at {threads} threads \
                     diverged from serial exhaustive",
                    path.file_name().unwrap().to_string_lossy(),
                );
            }
            gpp_par::set_threads(0);
        }
    }
}
