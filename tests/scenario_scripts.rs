//! Pins what every example scenario script does, independent of the
//! words it spells its faults with.
//!
//! Each `examples/scenarios/*.scn` runs under the flags its header
//! names (`--protocol`, `--copies`). The pin is, per script: the
//! grant/refuse outcome of every READ/WRITE/RECOVER line (plain or
//! `expect`), the final ⟨o, v, P⟩ of every site, and the invariant
//! monitor's verdict.

use std::path::Path;

use dynvote_replica::scenario::{parse, run};
use dynvote_replica::{Cluster, ClusterBuilder, Protocol};

/// The value of `--flag VALUE` in the script's header comment.
fn header_flag<'a>(script: &'a str, flag: &str) -> Option<&'a str> {
    script
        .lines()
        .take_while(|line| line.starts_with('#') || line.trim().is_empty())
        .flat_map(str::split_whitespace)
        .skip_while(|word| *word != flag)
        .nth(1)
}

/// Runs one script line by line and renders the pinned outcome.
fn outcome_of(script: &str) -> String {
    let protocol = header_flag(script, "--protocol").map_or(Protocol::Odv, |name| {
        Protocol::parse(name).expect("header names a protocol")
    });
    let copies: Vec<usize> = header_flag(script, "--copies").map_or(vec![0, 1, 2], |list| {
        list.split(',').map(|s| s.parse().unwrap()).collect()
    });
    let mut cluster: Cluster<String> = ClusterBuilder::new()
        .copies(copies.iter().copied())
        .protocol(protocol)
        .build_with_value("initial".to_string());
    let commands = parse(script).expect("example script parses");
    let lines: Vec<&str> = script.lines().collect();
    let mut out = String::new();
    for (index, (line, _)) in commands.iter().enumerate() {
        let log = run(&mut cluster, &commands[index..=index]).expect("example script runs");
        let words: Vec<&str> = lines[line - 1].split_whitespace().collect();
        let verdict = match words[0] {
            "expect" if words[1] == "refused" => "refused",
            "expect" => "granted",
            "read" | "write" | "recover" if log[0].contains(": refused") => "refused",
            "read" | "write" | "recover" => "granted",
            _ => continue,
        };
        out.push_str(&format!("line {line}: {verdict}\n"));
    }
    for site in cluster.participants().iter() {
        let state = cluster.state_at(site);
        out.push_str(&format!(
            "{site}: o={} v={} P={}\n",
            state.op, state.version, state.partition
        ));
    }
    out.push_str(&format!(
        "violations: {}\n",
        cluster.checker().violations().len()
    ));
    out
}

const WORKED_EXAMPLE: &str = "\
line 9: granted
line 19: granted
line 29: granted
line 30: refused
line 33: granted
line 41: refused
line 42: refused
line 46: granted
line 47: granted
line 48: granted
S0: o=8 v=4 P={S0, S1, S2}
S1: o=8 v=4 P={S0, S1, S2}
S2: o=8 v=4 P={S0, S1, S2}
violations: 0
";

const SEQUENTIAL_CLAIM_HAZARD: &str = "\
line 13: granted
line 14: granted
line 20: granted
line 23: granted
S0: o=3 v=1 P={S0}
S1: o=3 v=3 P={S1}
violations: 3
";

#[test]
fn every_example_script_keeps_its_outcomes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/scenarios exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".scn"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["sequential_claim_hazard.scn", "worked_example.scn"],
        "a new script needs its pin here"
    );
    for (name, want) in [
        ("sequential_claim_hazard.scn", SEQUENTIAL_CLAIM_HAZARD),
        ("worked_example.scn", WORKED_EXAMPLE),
    ] {
        let script = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(outcome_of(&script), want, "{name}");
    }
}
