//! Pins the seeded fault schedule byte for byte: the campaign a failure
//! dossier names must be the campaign a later build replays.
//! `golden/schedule-seed42-figure8.txt` is the output of
//! `dynvote-nemesis schedule --seed 42 --duration 60s --topology figure8`.

use std::process::Command;

#[test]
fn seed_42_figure8_schedule_matches_the_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_dynvote-nemesis"))
        .args([
            "schedule",
            "--seed",
            "42",
            "--duration",
            "60s",
            "--topology",
            "figure8",
        ])
        .output()
        .expect("spawn dynvote-nemesis");
    assert!(output.status.success(), "{output:?}");
    let golden = include_str!("golden/schedule-seed42-figure8.txt");
    assert_eq!(String::from_utf8(output.stdout).unwrap(), golden);
}
