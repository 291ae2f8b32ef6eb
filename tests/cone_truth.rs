//! Ground truth for the Topnode cones: a failure can only be observed
//! where the fault's effect can propagate, so the site of every detected
//! single TDF must lie in the fan-in cone of every observer its bypass
//! log names. Unlike the serial-vs-parallel equivalence tests, this
//! compares the cones against the fault simulator, not against another
//! cone builder.

use m3d_fault_loc::{DesignConfig, DesignContext, InjectedFault, TestBench, TestBenchConfig};
use m3d_netlist::BenchmarkProfile;
use m3d_sim::{FailObs, Polarity, Tdf};

/// Fault sites checked per design, spread evenly over the site list.
const SITES_PER_DESIGN: usize = 150;

#[test]
fn detected_fault_sites_lie_in_every_failing_observers_cone() {
    for profile in BenchmarkProfile::ALL {
        for config in DesignConfig::EVAL {
            let bench = TestBench::build(&TestBenchConfig::quick(profile, config));
            let ctx = DesignContext::new(&bench);
            let sites: Vec<_> = bench.netlist().fault_sites().collect();
            let stride = (sites.len() / SITES_PER_DESIGN).max(1);
            let mut detected = 0;
            for (k, &site) in sites.iter().step_by(stride).enumerate() {
                let polarity = if k % 2 == 0 {
                    Polarity::SlowToRise
                } else {
                    Polarity::SlowToFall
                };
                let log = ctx.failure_log(&InjectedFault::Single(Tdf::new(site, polarity)), false);
                if log.is_empty() {
                    continue;
                }
                detected += 1;
                let node = ctx.hetero.pin_of(site);
                for entry in log.entries() {
                    let FailObs::Direct(obs) = entry.obs else {
                        panic!("{}: bypass logs name observers directly", bench.name);
                    };
                    let cone = &ctx.hetero.topnode(obs).cone;
                    assert!(
                        cone.binary_search_by_key(&node, |e| e.node).is_ok(),
                        "{}: site {site:?} failed at {obs:?} (pattern {}) but is not in its cone",
                        bench.name,
                        entry.pattern
                    );
                }
            }
            assert!(
                detected * 4 >= SITES_PER_DESIGN,
                "{}: only {detected} of the sampled faults were detected",
                bench.name
            );
        }
    }
}
