//! The CI gate table: one row per artifact `ci.sh` keeps, each naming
//! the scenario run that produces it, that run's parameters, and the
//! checks its artifact must pass.
//!
//! Every check reads a value as the artifact prints it, so a run that
//! sits on a floor gets the verdict the printed number implies: a
//! speedup of 2.996 prints as `3.00` and clears a 3× floor.

use crate::{Params, Report};

/// A floor by the artifact's `cores`: on 1 core, on 2–3, on 4 or more.
pub type Floors = [f64; 3];

/// One check on an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The key prints `true`.
    True(&'static str),
    /// The key prints a number above zero.
    Positive(&'static str),
    /// The key prints exactly this number.
    Equals(&'static str, f64),
    /// The key prints a number at least the floor for the artifact's
    /// core count.
    AtLeast(&'static str, Floors),
    /// `peak` prints a number above zero, and `factor` times it is at
    /// most what `total` prints: a buffer sublinear in the stream.
    Sublinear {
        peak: &'static str,
        total: &'static str,
        factor: f64,
    },
}

/// One row of the table.
#[derive(Debug)]
pub struct Gate {
    /// The artifact's name; `ci.sh` writes `target/artifacts/NAME.json`.
    pub name: &'static str,
    /// The scenario that produces it.
    pub scenario: &'static str,
    /// The scenario's flags for this row.
    pub params: Params,
    /// What the artifact must satisfy, checked in order.
    pub checks: &'static [Check],
}

const fn params(hours: f64, jobs: Option<usize>, machines: Option<usize>) -> Params {
    Params {
        hours: Some(hours),
        seed: Some(1985),
        jobs,
        machines,
    }
}

/// Every gate `ci.sh` runs. The streaming smoke runs under a `ulimit
/// -v` address-space cap; the rest run as they are.
pub const GATES: [Gate; 10] = [
    Gate {
        name: "BENCH_streaming_smoke",
        scenario: "stream",
        params: params(2.0, None, None),
        checks: &[
            Check::AtLeast("records", [1000.0; 3]),
            Check::Sublinear {
                peak: "buffered_records_peak",
                total: "records",
                factor: 20.0,
            },
        ],
    },
    Gate {
        name: "BENCH_4",
        scenario: "sweep",
        params: params(0.25, Some(1), None),
        checks: &[
            Check::True("identical"),
            Check::AtLeast("speedup", [3.0; 3]),
        ],
    },
    Gate {
        name: "BENCH_4_table7",
        scenario: "sweep",
        params: params(2.0, Some(1), None),
        checks: &[
            Check::True("table7_identical"),
            Check::AtLeast("table7_speedup", [1.2; 3]),
        ],
    },
    Gate {
        name: "BENCH_archive_smoke",
        scenario: "archive",
        params: params(2.0, Some(4), None),
        checks: &[
            Check::True("identical"),
            Check::True("recovery_ok"),
            Check::Equals("corrupt_chunks_skipped", 1.0),
        ],
    },
    Gate {
        name: "BENCH_5",
        scenario: "archive",
        params: params(0.5, Some(4), None),
        checks: &[
            Check::True("identical"),
            Check::True("recovery_ok"),
            Check::AtLeast("par_speedup", [0.25, 0.25, 2.0]),
        ],
    },
    Gate {
        name: "BENCH_6",
        scenario: "archive",
        params: params(4.0, Some(4), None),
        checks: &[
            Check::True("identical"),
            Check::Positive("decode_scalar_records_s"),
            Check::Positive("decode_block_records_s"),
            Check::Positive("replay_records_s"),
            Check::AtLeast("decode_speedup", [1.5, 2.0, 2.0]),
        ],
    },
    Gate {
        name: "BENCH_7",
        scenario: "fleet",
        params: params(0.25, Some(4), Some(8)),
        checks: &[
            Check::True("identical"),
            Check::Equals("errors", 0.0),
            Check::AtLeast("speedup", [0.4, 1.2, 2.0]),
        ],
    },
    Gate {
        name: "BENCH_8",
        scenario: "fidelity",
        params: params(0.5, None, None),
        checks: &[
            Check::Positive("block_records_per_s"),
            Check::Positive("syscall_records_per_s"),
            Check::Positive("open_records_per_s"),
            Check::AtLeast("syscall_speedup", [0.9, 1.0, 1.0]),
        ],
    },
    Gate {
        name: "BENCH_9",
        scenario: "pipe",
        params: params(2.0, None, None),
        checks: &[
            Check::True("identical"),
            Check::True("analysis_identical"),
            Check::AtLeast("decode_pipelined_records_s", [5_000_000.0; 3]),
            Check::AtLeast("replay_speedup", [0.8, 1.2, 1.5]),
        ],
    },
    Gate {
        name: "BENCH_10",
        scenario: "serve",
        params: params(0.5, None, Some(6)),
        checks: &[
            Check::True("identical"),
            Check::True("queries_match"),
            Check::AtLeast("shards", [2.0; 3]),
            Check::AtLeast("ingest_records_s", [50_000.0, 100_000.0, 200_000.0]),
        ],
    },
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

fn value<'r>(r: &'r Report, key: &str) -> Result<&'r str, String> {
    r.get(key).ok_or_else(|| format!("{key} missing"))
}

fn number(r: &Report, key: &str) -> Result<f64, String> {
    let v = value(r, key)?;
    v.parse().map_err(|_| format!("{key} is {v}, not a number"))
}

impl Check {
    /// `Ok` if the artifact passes, `Err` if not; either way a short
    /// note stating the relation that holds.
    fn apply(self, r: &Report) -> Result<String, String> {
        let (ok, note) = match self {
            Check::True(key) => {
                let v = value(r, key)?;
                (v == "true", format!("{key} {v}"))
            }
            Check::Positive(key) => {
                let ok = number(r, key)? > 0.0;
                let op = if ok { ">" } else { "<=" };
                (ok, format!("{key} {} {op} 0", value(r, key)?))
            }
            Check::Equals(key, want) => {
                let ok = number(r, key)? == want;
                let op = if ok { "=" } else { "!=" };
                (ok, format!("{key} {} {op} {want}", value(r, key)?))
            }
            Check::AtLeast(key, floors) => {
                let cores = number(r, "cores")?;
                let floor = floors[if cores >= 4.0 {
                    2
                } else if cores >= 2.0 {
                    1
                } else {
                    0
                }];
                let ok = number(r, key)? >= floor;
                let op = if ok { ">=" } else { "<" };
                let v = value(r, key)?;
                (ok, format!("{key} {v} {op} {floor} on {cores} cores"))
            }
            Check::Sublinear {
                peak,
                total,
                factor,
            } => {
                let (p, t) = (number(r, peak)?, number(r, total)?);
                let ok = p > 0.0 && p * factor <= t;
                let bound = format!("{total} {t} / {factor}");
                (
                    ok,
                    if ok {
                        format!("0 < {peak} {p} <= {bound}")
                    } else {
                        format!("{peak} {p} outside (0, {bound}]")
                    },
                )
            }
        };
        if ok {
            Ok(note)
        } else {
            Err(note)
        }
    }
}

impl Gate {
    /// Every check's note, or the first failing one's.
    pub fn check(&self, r: &Report) -> Result<String, String> {
        let notes = self
            .checks
            .iter()
            .map(|c| c.apply(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(notes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// The core counts every row is checked at, and which of a row's
    /// three floors applies at each.
    const CORES: [(usize, usize); 5] = [(1, 0), (2, 1), (3, 1), (4, 2), (8, 2)];

    /// The table as the CI contract states it, written out apart from
    /// [`GATES`], so a changed parameter or a loosened, dropped or
    /// added check fails here.
    fn contract() -> Vec<(&'static str, &'static str, Params, Vec<Check>)> {
        use Check::*;
        let p = |hours, jobs, machines| Params {
            hours: Some(hours),
            seed: Some(1985),
            jobs,
            machines,
        };
        let sublinear = Sublinear {
            peak: "buffered_records_peak",
            total: "records",
            factor: 20.0,
        };
        vec![
            (
                "BENCH_streaming_smoke",
                "stream",
                p(2.0, None, None),
                vec![AtLeast("records", [1000.0; 3]), sublinear],
            ),
            (
                "BENCH_4",
                "sweep",
                p(0.25, Some(1), None),
                vec![True("identical"), AtLeast("speedup", [3.0; 3])],
            ),
            (
                "BENCH_4_table7",
                "sweep",
                p(2.0, Some(1), None),
                vec![
                    True("table7_identical"),
                    AtLeast("table7_speedup", [1.2; 3]),
                ],
            ),
            (
                "BENCH_archive_smoke",
                "archive",
                p(2.0, Some(4), None),
                vec![
                    True("identical"),
                    True("recovery_ok"),
                    Equals("corrupt_chunks_skipped", 1.0),
                ],
            ),
            (
                "BENCH_5",
                "archive",
                p(0.5, Some(4), None),
                vec![
                    True("identical"),
                    True("recovery_ok"),
                    AtLeast("par_speedup", [0.25, 0.25, 2.0]),
                ],
            ),
            (
                "BENCH_6",
                "archive",
                p(4.0, Some(4), None),
                vec![
                    True("identical"),
                    Positive("decode_scalar_records_s"),
                    Positive("decode_block_records_s"),
                    Positive("replay_records_s"),
                    AtLeast("decode_speedup", [1.5, 2.0, 2.0]),
                ],
            ),
            (
                "BENCH_7",
                "fleet",
                p(0.25, Some(4), Some(8)),
                vec![
                    True("identical"),
                    Equals("errors", 0.0),
                    AtLeast("speedup", [0.4, 1.2, 2.0]),
                ],
            ),
            (
                "BENCH_8",
                "fidelity",
                p(0.5, None, None),
                vec![
                    Positive("block_records_per_s"),
                    Positive("syscall_records_per_s"),
                    Positive("open_records_per_s"),
                    AtLeast("syscall_speedup", [0.9, 1.0, 1.0]),
                ],
            ),
            (
                "BENCH_9",
                "pipe",
                p(2.0, None, None),
                vec![
                    True("identical"),
                    True("analysis_identical"),
                    AtLeast("decode_pipelined_records_s", [5e6; 3]),
                    AtLeast("replay_speedup", [0.8, 1.2, 1.5]),
                ],
            ),
            (
                "BENCH_10",
                "serve",
                p(0.5, None, Some(6)),
                vec![
                    True("identical"),
                    True("queries_match"),
                    AtLeast("shards", [2.0; 3]),
                    AtLeast("ingest_records_s", [50e3, 100e3, 200e3]),
                ],
            ),
        ]
    }

    /// Digits after the point the scenarios print a gated number with.
    fn decimals(key: &str) -> usize {
        if key.ends_with("speedup") {
            2
        } else {
            0
        }
    }

    /// An artifact that meets every check of `gate` exactly at its
    /// floor on `cores` cores (floor index `at`).
    fn at_floor(gate: &Gate, (cores, at): (usize, usize)) -> BTreeMap<&'static str, String> {
        let mut v = BTreeMap::from([("cores", cores.to_string())]);
        for check in gate.checks {
            let (key, value) = match *check {
                Check::True(key) => (key, "true".to_string()),
                Check::Positive(key) => (key, "1".to_string()),
                Check::Equals(key, n) => (key, n.to_string()),
                Check::AtLeast(key, floors) => (key, format!("{:.*}", decimals(key), floors[at])),
                Check::Sublinear { .. } => continue,
            };
            v.insert(key, value);
        }
        for check in gate.checks {
            if let Check::Sublinear {
                peak,
                total,
                factor,
            } = *check
            {
                let total: f64 = v[total].parse().expect("a number");
                v.insert(peak, (total / factor).to_string());
            }
        }
        v
    }

    fn verdict(gate: &Gate, values: &BTreeMap<&'static str, String>) -> Result<String, String> {
        let mut r = Report::default();
        for (&k, v) in values {
            r.put(k, v);
        }
        gate.check(&r)
    }

    /// `vary(gate, check, passing values)` for every check of every row
    /// at every core count.
    fn each_check(mut vary: impl FnMut(&Gate, Check, &BTreeMap<&'static str, String>, usize)) {
        for gate in &GATES {
            for cores in CORES {
                let base = at_floor(gate, cores);
                for &check in gate.checks {
                    vary(gate, check, &base, cores.1);
                }
            }
        }
    }

    #[test]
    fn the_table_is_the_contract() {
        let contract = contract();
        assert_eq!(contract.len(), GATES.len());
        for (gate, (name, scenario, params, checks)) in GATES.iter().zip(contract) {
            assert_eq!((gate.name, gate.scenario), (name, scenario));
            assert_eq!(gate.params, params, "{name}");
            assert_eq!(gate.checks, checks, "{name}");
            let (_, flags, _) = crate::scenario(scenario).expect("a scenario");
            for (flag, set) in [("--jobs", params.jobs), ("--machines", params.machines)] {
                assert!(set.is_none() || flags.contains(&flag), "{name} sets {flag}");
            }
        }
    }

    #[test]
    fn reports_at_the_floor_pass() {
        for gate in &GATES {
            for cores in CORES {
                let r = verdict(gate, &at_floor(gate, cores));
                assert!(r.is_ok(), "{} on {} cores: {r:?}", gate.name, cores.0);
            }
        }
    }

    #[test]
    fn one_printed_step_below_the_floor_fails_and_rounding_up_passes() {
        each_check(|gate, check, base, at| {
            let Check::AtLeast(key, floors) = check else {
                return;
            };
            let d = decimals(key);
            let step = 10f64.powi(-(d as i32));
            let mut v = base.clone();
            v.insert(key, format!("{:.d$}", floors[at] - step));
            assert!(verdict(gate, &v).is_err(), "{} {key} {}", gate.name, v[key]);
            // Just under the floor, but printed as the floor.
            v.insert(key, format!("{:.d$}", floors[at] - 0.4 * step));
            assert_eq!(v[key], base[key]);
            assert!(verdict(gate, &v).is_ok(), "{} {key} {}", gate.name, v[key]);
        });
    }

    #[test]
    fn a_false_flag_a_zero_throughput_or_a_wrong_count_fails() {
        each_check(|gate, check, base, _| {
            let bad: Vec<(&str, String)> = match check {
                Check::True(key) => vec![(key, "false".into())],
                Check::Positive(key) => vec![(key, "0".into())],
                Check::Equals(key, n) => {
                    vec![(key, (n - 1.0).to_string()), (key, (n + 1.0).to_string())]
                }
                Check::Sublinear { peak, .. } => {
                    let at: f64 = base[peak].parse().expect("a number");
                    vec![(peak, "0".into()), (peak, (at + 1.0).to_string())]
                }
                Check::AtLeast(..) => vec![],
            };
            for (key, value) in bad {
                let mut v = base.clone();
                v.insert(key, value);
                assert!(verdict(gate, &v).is_err(), "{} {key} {}", gate.name, v[key]);
            }
        });
    }

    #[test]
    fn a_missing_key_fails() {
        each_check(|gate, check, base, _| {
            let key = match check {
                Check::True(key)
                | Check::Positive(key)
                | Check::Equals(key, _)
                | Check::AtLeast(key, _) => key,
                Check::Sublinear { peak, .. } => peak,
            };
            let mut v = base.clone();
            v.remove(key);
            assert!(verdict(gate, &v).is_err(), "{} without {key}", gate.name);
        });
    }
}
