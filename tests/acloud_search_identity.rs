//! Search identity of the ACloud lowering: grounding the ACloud program's
//! linear arithmetic (`C==V*Cpu`, `C==Cpu+Cpu2`, `SUM<…>`, the forced
//! comparisons of `c1`/`c2`) must leave the branch-and-bound search
//! untouched. Every seeded ACloud round below is solved cold (warm start
//! off) by exact search under a 20k-node budget, and its objective, node
//! count, fail count and placement are compared with [`FIXTURE`].
//!
//! # How the fixture was recorded
//!
//! [`FIXTURE`] was recorded at commit `c6dfd89`, whose grounding gave every
//! symbolic attribute and every forced comparison its own solver variable:
//! this file was run there with an empty fixture, and the rows it printed
//! on mismatch were pasted in. A change to the lowering that alters the
//! search (a different first-fail choice, weaker or stronger propagation)
//! shows up here as a changed node or fail count.

use std::collections::BTreeMap;
use std::time::Duration;

use cologne::datalog::{NodeId, Value};
use cologne::{CologneInstance, ProgramParams, SolverBranching, VarDomain};
use cologne_usecases::acloud::{dc_hosts, Placement, TraceGenerator};
use cologne_usecases::programs::ACLOUD_CENTRALIZED;
use cologne_usecases::AcloudConfig;

/// Branch-and-bound node budget per round.
const NODE_LIMIT: u64 = 20_000;
/// Intervals replayed per seed (three data centers each).
const INTERVALS: usize = 3;

/// One solved round: `(seed, interval, dc, objective, nodes, fails,
/// placement as (vm, host) pairs of the VMs placed on a host)`.
type Row = (u64, usize, usize, i64, u64, u64, &'static [(i64, i64)]);

#[rustfmt::skip]
const FIXTURE: &[Row] = &[
    (7, 0, 0, 95396, 20000, 19816, &[(11, 3), (14, 3), (18, 3), (23, 3), (25, 3), (35, 3), (37, 2), (41, 2), (78, 0), (162, 1), (192, 2), (197, 1), (202, 0), (266, 1)]),
    (7, 0, 1, 360, 20000, 19870, &[(472, 7), (521, 7), (552, 7), (567, 6), (589, 5), (596, 4), (602, 4), (613, 5), (621, 6), (624, 4)]),
    (7, 0, 2, 648, 4111, 4081, &[(656, 11), (702, 10), (707, 10), (739, 11), (877, 11), (880, 9)]),
    (7, 1, 0, 3203, 20000, 19861, &[(12, 3), (20, 3), (31, 2), (55, 2), (139, 0), (145, 2), (151, 2), (183, 1), (199, 1), (249, 2)]),
    (7, 1, 1, 109571, 20000, 19783, &[(340, 7), (378, 7), (382, 7), (393, 7), (399, 7), (408, 7), (450, 7), (456, 6), (492, 6), (541, 5), (588, 5), (590, 4), (604, 4), (618, 5), (627, 4)]),
    (7, 1, 2, 563, 20000, 19858, &[(646, 11), (686, 11), (688, 9), (774, 10), (815, 10), (860, 8), (900, 9), (921, 8), (931, 10)]),
    (7, 2, 0, 157784, 20000, 19768, &[(6, 3), (82, 3), (108, 3), (125, 3), (156, 3), (222, 2), (231, 2), (240, 2), (242, 1), (248, 0), (249, 1), (272, 1), (300, 0)]),
    (7, 2, 1, 227, 20000, 19951, &[(434, 7), (467, 7), (480, 5), (544, 5), (554, 7), (580, 6), (582, 4), (594, 6)]),
    (7, 2, 2, 226443, 20000, 19809, &[(646, 11), (653, 11), (690, 11), (706, 11), (758, 11), (762, 11), (782, 10), (804, 10), (823, 9), (838, 9), (884, 8), (898, 8), (930, 10), (946, 9)]),
    (31, 0, 0, 2333780, 20000, 19783, &[(20, 3), (23, 3), (29, 3), (45, 3), (67, 3), (69, 3), (72, 3), (94, 3), (115, 3), (157, 3), (161, 3), (178, 3), (189, 3), (191, 3), (196, 3), (222, 2), (224, 0), (229, 2), (285, 2), (288, 1), (291, 2), (305, 2), (313, 0)]),
    (31, 0, 1, 78020, 20000, 19755, &[(351, 7), (356, 7), (369, 7), (405, 7), (415, 7), (437, 6), (487, 5), (495, 4), (496, 4), (508, 5), (534, 4), (566, 6), (609, 5)]),
    (31, 0, 2, 665640, 20000, 19826, &[(647, 11), (648, 11), (651, 11), (654, 11), (657, 11), (685, 11), (703, 11), (717, 11), (735, 10), (736, 10), (777, 10), (841, 8), (870, 9), (871, 10), (888, 9), (951, 8)]),
    (31, 1, 0, 1452, 4039, 3973, &[(29, 1), (45, 1), (114, 0), (120, 0), (198, 2), (252, 2)]),
    (31, 1, 1, 219, 20000, 19862, &[(411, 7), (432, 7), (442, 4), (484, 6), (520, 4), (534, 6), (546, 5), (551, 4), (577, 5)]),
    (31, 1, 2, 6715, 20000, 19837, &[(650, 11), (664, 11), (692, 11), (765, 8), (779, 10), (812, 10), (822, 9), (834, 10), (904, 9), (949, 8)]),
    (31, 2, 0, 202028, 20000, 19791, &[(6, 3), (31, 3), (36, 3), (77, 3), (100, 3), (115, 3), (138, 2), (152, 2), (200, 0), (214, 1), (227, 2), (228, 0), (250, 1), (268, 0)]),
    (31, 2, 1, 355, 4114, 4072, &[(429, 5), (464, 6), (472, 7), (496, 6), (534, 5), (603, 4)]),
    (31, 2, 2, 50379, 20000, 19793, &[(659, 11), (698, 11), (741, 10), (788, 10), (803, 9), (822, 8), (847, 10), (886, 8), (894, 9), (895, 9)]),
];

/// A round as observed by this run (owned twin of [`Row`]).
#[derive(Debug, PartialEq)]
struct Observed {
    seed: u64,
    interval: usize,
    dc: usize,
    objective: i64,
    nodes: u64,
    fails: u64,
    placement: Vec<(i64, i64)>,
}

fn instance(dc: usize) -> CologneInstance {
    let params = ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_branching(SolverBranching::FirstFail)
        .with_solver_node_limit(Some(NODE_LIMIT))
        .with_solver_max_time(None::<Duration>)
        .with_warm_start(false);
    CologneInstance::new(NodeId(dc as u32), ACLOUD_CENTRALIZED, params).expect("ACloud compiles")
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// Replay `INTERVALS` intervals of the ACloud policy on the trace seeded
/// with `seed`, one instance per data center kept across intervals, and
/// record every round that had hot VMs to place.
fn replay(seed: u64, out: &mut Vec<Observed>) {
    let config = AcloudConfig {
        seed,
        solver_node_limit: NODE_LIMIT,
        ..AcloudConfig::default()
    };
    let mut tracegen = TraceGenerator::new(&config);
    let mut vms = tracegen.initial_vms();
    let mut placement = Placement::initial(&config, &vms, config.seed + 1);
    let mut instances: Vec<CologneInstance> = (0..config.data_centers).map(instance).collect();
    for interval in 0..INTERVALS {
        tracegen.step(&mut vms, interval);
        for (dc, inst) in instances.iter_mut().enumerate() {
            let hot: Vec<_> = vms
                .iter()
                .filter(|vm| vm.dc == dc && vm.powered_on && vm.cpu > config.cpu_threshold)
                .collect();
            if hot.is_empty() {
                continue;
            }
            let hosts = dc_hosts(&config, dc);
            let mut background: BTreeMap<i64, f64> = hosts.iter().map(|&h| (h, 0.0)).collect();
            for vm in vms
                .iter()
                .filter(|vm| vm.dc == dc && vm.powered_on && vm.cpu <= config.cpu_threshold)
            {
                *background.entry(placement.host_of(vm.id)).or_insert(0.0) += vm.cpu;
            }
            let rows = |f: &dyn Fn(i64) -> Vec<Value>, keys: &[i64]| -> Vec<Vec<Value>> {
                keys.iter().map(|&k| f(k)).collect()
            };
            let vm_rows = hot
                .iter()
                .map(|vm| vec![int(vm.id), int(vm.cpu.round() as i64), int(vm.mem_gb)])
                .collect();
            inst.relation("vm").unwrap().set(vm_rows).unwrap();
            inst.relation("host")
                .unwrap()
                .set(rows(
                    &|h| vec![int(h), int(background[&h].round() as i64), int(0)],
                    &hosts,
                ))
                .unwrap();
            inst.relation("hostMemThres")
                .unwrap()
                .set(rows(&|h| vec![int(h), int(config.host_mem_gb)], &hosts))
                .unwrap();
            let report = inst.invoke_solver().expect("round solves");
            assert!(report.feasible && !report.trivial, "round {interval}/{dc}");
            let chosen: Vec<(i64, i64)> = report
                .table("assign")
                .iter()
                .filter(|row| row[2].as_int() == Some(1))
                .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
                .collect();
            for &(vid, hid) in &chosen {
                placement.migrate(vid, hid);
            }
            out.push(Observed {
                seed,
                interval,
                dc,
                objective: report.objective.expect("ACloud has an objective"),
                nodes: report.stats.nodes,
                fails: report.stats.fails,
                placement: chosen,
            });
        }
    }
}

/// The observed rounds in the literal syntax of [`FIXTURE`].
fn render(rows: &[Observed]) -> String {
    let mut s = String::new();
    for r in rows {
        let pairs: Vec<String> = r
            .placement
            .iter()
            .map(|(v, h)| format!("({v}, {h})"))
            .collect();
        s.push_str(&format!(
            "    ({}, {}, {}, {}, {}, {}, &[{}]),\n",
            r.seed,
            r.interval,
            r.dc,
            r.objective,
            r.nodes,
            r.fails,
            pairs.join(", ")
        ));
    }
    s
}

/// Replay one seed and compare its rounds with the fixture's rows for it.
fn assert_reproduces(seed: u64) {
    let mut observed = Vec::new();
    replay(seed, &mut observed);
    let expected: Vec<Observed> = FIXTURE
        .iter()
        .filter(|row| row.0 == seed)
        .map(
            |&(seed, interval, dc, objective, nodes, fails, placement)| Observed {
                seed,
                interval,
                dc,
                objective,
                nodes,
                fails,
                placement: placement.to_vec(),
            },
        )
        .collect();
    assert!(
        observed == expected,
        "ACloud search changed for seed {seed}; observed rounds:\n{}",
        render(&observed)
    );
}

#[test]
fn acloud_seed_7_rounds_reproduce_the_recorded_search() {
    assert_reproduces(7);
}

#[test]
fn acloud_seed_31_rounds_reproduce_the_recorded_search() {
    assert_reproduces(31);
}
