//! Machine specifications: the Intel Paragon and the Cray T3D (Figure 3),
//! with communication cost tables calibrated to reproduce the *orderings*
//! of the paper's Figure 6.
//!
//! Calibration targets (see DESIGN.md):
//!
//! * both machines: combining knee at ~512 doubles (4 KB);
//! * Paragon: `isend`/`irecv` does **not** reduce the exposed overhead of
//!   `csend`/`crecv`; `hsend`/`hrecv` **increases** it;
//! * T3D: SHMEM's exposed overhead ≈ 10% below PVM's, but with the
//!   prototype binding's heavyweight pairwise synchronization;
//! * absolute magnitudes in the range of era measurements (~90 µs of
//!   software per small NX message on the Paragon, on the order of 100 µs
//!   under vendor PVM on the T3D), with memory-bound effective flop rates —
//!   which puts whole-program simulated times within a small factor of the
//!   paper's Appendix A seconds (see DESIGN.md calibration notes).

use crate::cost::CommCosts;
use commopt_ironman::Library;

/// A machine: computation speed plus communication libraries.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    pub name: &'static str,
    pub clock_mhz: f64,
    /// Average microseconds per element-wise floating-point operation,
    /// including the memory traffic of compiled stencil code.
    pub flop_us: f64,
    /// Native timer granularity, nanoseconds (Figure 3; informational).
    pub timer_granularity_ns: f64,
    /// Per-stage cost of a reduction tree combine+forward, microseconds.
    pub reduce_stage_us: f64,
    /// Fixed per-statement cost of an executed array statement with a
    /// non-empty local section (loop-nest prologue of the generated C).
    pub stmt_overhead_us: f64,
    /// Cost of an executed statement or IRONMAN call whose local section is
    /// empty — the runtime guard that short-circuits it.
    pub guard_overhead_us: f64,
    libraries: Vec<(Library, CommCosts)>,
}

impl MachineSpec {
    /// The Intel Paragon model (50 MHz i860, NX message passing).
    pub fn paragon() -> MachineSpec {
        let base = CommCosts {
            send_init_us: 42.0,
            send_per_byte_us: 0.011,
            recv_init_us: 48.0,
            recv_per_byte_us: 0.011,
            post_recv_us: 10.0,
            wait_us: 12.0,
            sync_us: 0.0,
            sync_call_us: 0.0,
            latency_us: 25.0,
            bandwidth_mb_s: 90.0,
        };
        MachineSpec {
            name: "Intel Paragon",
            clock_mhz: 50.0,
            flop_us: 0.60,
            timer_granularity_ns: 100.0,
            reduce_stage_us: 200.0,
            stmt_overhead_us: 2.0,
            guard_overhead_us: 0.2,
            libraries: vec![
                (Library::NxSync, base),
                (
                    // Asynchronous primitives: initiation is no cheaper and
                    // the extra post/wait calls add up — the paper found
                    // "little performance improvement or, in most cases,
                    // performance degradation".
                    Library::NxAsync,
                    CommCosts {
                        send_init_us: 40.0,
                        post_recv_us: 18.0,
                        wait_us: 17.0,
                        ..base
                    },
                ),
                (
                    // Callback message passing is extremely heavyweight.
                    Library::NxCallback,
                    CommCosts {
                        send_init_us: 60.0,
                        recv_init_us: 55.0,
                        post_recv_us: 18.0,
                        wait_us: 30.0,
                        ..base
                    },
                ),
            ],
        }
    }

    /// The Cray T3D model (150 MHz Alpha EV4, PVM + SHMEM).
    pub fn t3d() -> MachineSpec {
        let pvm = CommCosts {
            // Vendor-optimized PVM on the T3D still cost on the order of
            // 100 µs of software per small message.
            send_init_us: 60.0,
            send_per_byte_us: 0.0140,
            recv_init_us: 55.0,
            recv_per_byte_us: 0.0130,
            post_recv_us: 0.0,
            wait_us: 0.0,
            sync_us: 0.0,
            sync_call_us: 0.0,
            // PVM's message-readiness delay (protocol processing between
            // the send call and the data being receivable) — the part of
            // the cost pipelining can hide.
            latency_us: 45.0,
            bandwidth_mb_s: 250.0,
        };
        let shmem = CommCosts {
            // One-way put: direct remote store, cheap injection...
            send_init_us: 45.0,
            send_per_byte_us: 0.0220,
            recv_init_us: 0.0,
            recv_per_byte_us: 0.0,
            post_recv_us: 0.0,
            wait_us: 0.0,
            // ...but the prototype IRONMAN binding's `synch` is genuinely
            // heavyweight — paid at DR and DN of every *data-moving*
            // instance, which keeps SHMEM's exposed overhead only ~10%
            // below PVM's (Figure 6) and, because the DR rendezvous joins
            // the partners' clocks both ways, penalizes wavefront-
            // serialized codes (TOMCATV, SP; §3.3.2).
            sync_us: 20.0,
            sync_call_us: 3.0,
            latency_us: 3.0,
            bandwidth_mb_s: 300.0,
        };
        MachineSpec {
            name: "Cray T3D",
            clock_mhz: 150.0,
            // Memory-bound stencil code on the EV4 achieved only a few
            // Mflops; timings below reflect effective, not peak, rates.
            flop_us: 0.28,
            timer_granularity_ns: 150.0,
            reduce_stage_us: 60.0,
            stmt_overhead_us: 3.0,
            guard_overhead_us: 0.3,
            libraries: vec![(Library::Pvm, pvm), (Library::Shmem, shmem)],
        }
    }

    /// A user-defined machine: name, clock, effective flop cost, and a
    /// communication cost table per supported library. Overheads default
    /// to modest modern values; adjust the public fields afterwards.
    pub fn custom(
        name: &'static str,
        clock_mhz: f64,
        flop_us: f64,
        libraries: Vec<(Library, CommCosts)>,
    ) -> MachineSpec {
        assert!(
            !libraries.is_empty(),
            "a machine needs at least one library"
        );
        MachineSpec {
            name,
            clock_mhz,
            flop_us,
            timer_granularity_ns: 100.0,
            reduce_stage_us: 20.0,
            stmt_overhead_us: 1.0,
            guard_overhead_us: 0.1,
            libraries,
        }
    }

    /// The communication libraries this machine provides.
    pub fn libraries(&self) -> impl Iterator<Item = Library> + '_ {
        self.libraries.iter().map(|(l, _)| *l)
    }

    /// Cost table for a library.
    ///
    /// # Panics
    /// Panics when the library is not available on this machine (e.g.
    /// SHMEM on the Paragon), mirroring a link error on the real systems.
    pub fn costs(&self, lib: Library) -> &CommCosts {
        self.libraries
            .iter()
            .find(|(l, _)| *l == lib)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("{} has no {} library", self.name, lib.name()))
    }

    /// Time for a `nprocs`-wide reduction/broadcast tree.
    pub fn reduce_us(&self, nprocs: usize) -> f64 {
        let stages = (nprocs.max(1) as f64).log2().ceil();
        // Down-sweep broadcast mirrors the up-sweep combine.
        2.0 * stages * self.reduce_stage_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_parameters() {
        let p = MachineSpec::paragon();
        assert_eq!(p.clock_mhz, 50.0);
        assert_eq!(p.timer_granularity_ns, 100.0);
        let t = MachineSpec::t3d();
        assert_eq!(t.clock_mhz, 150.0);
        assert_eq!(t.timer_granularity_ns, 150.0);
    }

    #[test]
    fn library_availability_matches_figure3() {
        let p = MachineSpec::paragon();
        let libs: Vec<Library> = p.libraries().collect();
        assert_eq!(
            libs,
            vec![Library::NxSync, Library::NxAsync, Library::NxCallback]
        );
        let t = MachineSpec::t3d();
        let libs: Vec<Library> = t.libraries().collect();
        assert_eq!(libs, vec![Library::Pvm, Library::Shmem]);
    }

    #[test]
    #[should_panic(expected = "no SHMEM library")]
    fn paragon_has_no_shmem() {
        MachineSpec::paragon().costs(Library::Shmem);
    }

    #[test]
    fn knee_near_512_doubles_on_both_machines() {
        for (m, lib) in [
            (MachineSpec::paragon(), Library::NxSync),
            (MachineSpec::t3d(), Library::Pvm),
        ] {
            let knee = m.costs(lib).combining_knee_bytes();
            let doubles = knee / 8;
            assert!(
                (350..=750).contains(&doubles),
                "{}: knee at {doubles} doubles",
                m.name
            );
        }
    }

    #[test]
    fn figure6_orderings_hold() {
        // Exposed overhead for a 64-double (512 B) message, per Figure 6's
        // small-message regime.
        let p = MachineSpec::paragon();
        let b = 512;
        let csend = p.costs(Library::NxSync).exposed_overhead_us(b, 0, 0, 0);
        let isend = p.costs(Library::NxAsync).exposed_overhead_us(b, 0, 2, 1);
        let hsend = p.costs(Library::NxCallback).exposed_overhead_us(b, 0, 2, 1);
        assert!(
            isend >= csend * 0.95,
            "async should not beat sync: {isend} vs {csend}"
        );
        assert!(hsend > csend, "callbacks are heavier: {hsend} vs {csend}");

        let t = MachineSpec::t3d();
        let pvm = t.costs(Library::Pvm).exposed_overhead_us(b, 0, 0, 0);
        // A processor in the §3.2 exchange executes three synch calls per
        // transfer pair: DR for the transfer it receives, DR for the one it
        // sends, and DN for the one it receives.
        let shmem = t.costs(Library::Shmem).exposed_overhead_us(b, 3, 0, 0);
        assert!(shmem < pvm, "shmem below pvm: {shmem} vs {pvm}");
        assert!(shmem > pvm * 0.80, "but only ~10%: {shmem} vs {pvm}");
    }

    #[test]
    fn t3d_is_faster_at_compute() {
        assert!(MachineSpec::t3d().flop_us < MachineSpec::paragon().flop_us);
    }

    #[test]
    fn reduce_scales_logarithmically() {
        let t = MachineSpec::t3d();
        assert!(t.reduce_us(64) > t.reduce_us(4));
        assert!((t.reduce_us(64) / t.reduce_us(8) - 2.0).abs() < 1e-9); // 6 vs 3 stages
        assert_eq!(t.reduce_us(1), 0.0);
    }
}
