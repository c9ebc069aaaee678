//! Runs a scenario script against a replicated cluster.
//!
//! ```text
//! cargo run -p dynvote-experiments --bin scenario -- \
//!     [--protocol odv] [--copies 0,1,2] [--witnesses 3] [FILE]
//! ```
//!
//! With no `FILE`, the script is read from stdin. The scenario language
//! is documented in `dynvote_replica::scenario`; for example:
//!
//! ```text
//! write 0 v2
//! fail 1
//! expect read 2 v2
//! repair 1
//! recover 1
//! state 1
//! ```

use std::io::Read as _;

use dynvote_replica::scenario::{parse, run};
use dynvote_replica::{Cluster, ClusterBuilder, Protocol};

fn usage() -> ! {
    eprintln!(
        "usage: scenario [--protocol mcv|dv|ldv|odv|tdv|otdv] \
         [--copies N,N,…] [--witnesses N,N,…] [FILE]"
    );
    std::process::exit(2);
}

fn parse_sites(text: &str) -> Vec<usize> {
    text.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| t.trim().parse::<usize>().unwrap_or_else(|_| usage()))
        .collect()
}

fn main() {
    let mut protocol = Protocol::Odv;
    let mut copies = vec![0usize, 1, 2];
    let mut witnesses: Vec<usize> = Vec::new();
    let mut file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--protocol" => {
                protocol = args
                    .next()
                    .and_then(|token| Protocol::parse(&token))
                    .unwrap_or_else(|| usage());
            }
            "--copies" => copies = parse_sites(&args.next().unwrap_or_else(|| usage())),
            "--witnesses" => witnesses = parse_sites(&args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => file = Some(other.to_string()),
            _ => usage(),
        }
    }

    let script = match &file {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot read stdin: {e}");
                    std::process::exit(1);
                });
            buf
        }
    };

    let commands = match parse(&script) {
        Ok(commands) => commands,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };

    let mut cluster: Cluster<String> = ClusterBuilder::new()
        .copies(copies.iter().copied())
        .witnesses(witnesses.iter().copied())
        .protocol(protocol)
        .build_with_value("initial".to_string());

    println!(
        "protocol {}, copies {:?}, witnesses {:?}",
        protocol.name(),
        copies,
        witnesses
    );
    match run(&mut cluster, &commands) {
        Ok(log) => {
            for entry in log {
                println!("  {entry}");
            }
            let violations = cluster.checker().violations();
            if violations.is_empty() {
                println!("invariant monitor: clean");
            } else {
                println!("invariant monitor: {} violation(s)", violations.len());
                for v in violations {
                    println!("  ! {v}");
                }
                std::process::exit(3);
            }
        }
        Err(e) => {
            eprintln!("scenario failed: {e}");
            std::process::exit(1);
        }
    }
}
