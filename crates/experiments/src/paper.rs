//! The paper's published results, transcribed for side-by-side output.

/// Table 2 of the paper: replicated-file unavailabilities.
/// Rows: configurations A–H; columns: MCV, DV, LDV, ODV, TDV, OTDV.
pub const PAPER_TABLE2: [[f64; 6]; 8] = [
    // MCV       DV        LDV       ODV       TDV       OTDV
    [0.002130, 0.004348, 0.000668, 0.000849, 0.000015, 0.000013], // A: 1,2,4
    [0.003871, 0.008281, 0.001214, 0.001432, 0.000109, 0.000066], // B: 1,2,6
    [0.031127, 0.056428, 0.001707, 0.003492, 0.001707, 0.003492], // C: 1,6,8
    [0.069342, 0.117683, 0.053592, 0.053357, 0.034490, 0.031548], // D: 6,7,8
    [0.000608, 0.000018, 0.000012, 0.000084, 0.000000, 0.000000], // E: 1,2,3,4
    [0.002761, 0.108034, 0.002154, 0.000947, 0.000018, 0.000004], // F: 1,2,4,6
    [0.002027, 0.001510, 0.000151, 0.000339, 0.000041, 0.000036], // G: 1,2,6,8
    [0.001408, 0.004275, 0.000171, 0.000218, 0.000020, 0.000043], // H: 1,2,7,8
];

/// Table 3 of the paper: mean duration of unavailable periods (days).
/// `None` marks the two cells the paper prints as "–" (no outage
/// observed for TDV/OTDV on configuration E).
pub const PAPER_TABLE3: [[Option<f64>; 6]; 8] = [
    [
        Some(0.101968),
        Some(0.210651),
        Some(0.077353),
        Some(0.084141),
        Some(0.10764),
        Some(0.05115),
    ], // A
    [
        Some(0.101059),
        Some(0.217369),
        Some(0.078867),
        Some(0.084387),
        Some(0.08650),
        Some(0.05337),
    ], // B
    [
        Some(0.944336),
        Some(1.868895),
        Some(0.085960),
        Some(0.173151),
        Some(0.085960),
        Some(0.173151),
    ], // C
    [
        Some(3.000469),
        Some(5.850864),
        Some(7.443789),
        Some(6.293645),
        Some(7.428305),
        Some(7.445393),
    ], // D
    [
        Some(0.071134),
        Some(0.06363),
        Some(0.08102),
        Some(0.05417),
        None,
        None,
    ], // E
    [
        Some(0.102001),
        Some(5.962853),
        Some(0.275006),
        Some(0.101756),
        Some(0.05556),
        Some(0.02252),
    ], // F
    [
        Some(0.084714),
        Some(0.297879),
        Some(0.07787),
        Some(0.073773),
        Some(0.12407),
        Some(0.04149),
    ], // G
    [
        Some(0.078933),
        Some(0.142206),
        Some(0.135054),
        Some(0.060009),
        Some(0.103171),
        Some(0.051964),
    ], // H
];

/// Row labels shared by both tables (configuration: paper site list).
pub const CONFIG_LABELS: [&str; 8] = [
    "A: 1, 2, 4",
    "B: 1, 2, 6",
    "C: 1, 6, 8",
    "D: 6, 7, 8",
    "E: 1, 2, 3, 4",
    "F: 1, 2, 4, 6",
    "G: 1, 2, 6, 8",
    "H: 1, 2, 7, 8",
];

#[cfg(test)]
mod tests {
    use dynvote_core::policy::Protocol;

    use super::*;

    #[test]
    fn dimensions() {
        assert_eq!(PAPER_TABLE2.len(), 8);
        assert_eq!(PAPER_TABLE3.len(), 8);
        assert_eq!(PAPER_TABLE2[0].len(), Protocol::ALL.len());
        assert_eq!(CONFIG_LABELS.len(), 8);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // the index addresses table cells
    fn headline_claims_hold_in_the_transcription() {
        let (mcv, dv, ldv, odv, tdv, otdv) = (0, 1, 2, 3, 4, 5);
        // DV worse than MCV for all three-copy configurations (rows 0-3).
        for row in 0..4 {
            assert!(PAPER_TABLE2[row][dv] > PAPER_TABLE2[row][mcv], "row {row}");
        }
        // LDV beats MCV and DV everywhere.
        for row in 0..8 {
            assert!(PAPER_TABLE2[row][ldv] < PAPER_TABLE2[row][mcv], "row {row}");
            assert!(PAPER_TABLE2[row][ldv] < PAPER_TABLE2[row][dv], "row {row}");
        }
        // ODV beats LDV on three configurations (D, F, and... the paper
        // says three of eight; D, F are the clear ones, G/H are close).
        let odv_wins = (0..8)
            .filter(|&r| PAPER_TABLE2[r][odv] < PAPER_TABLE2[r][ldv])
            .count();
        assert_eq!(odv_wins, 2, "ODV beats LDV on D and F in Table 2");
        // C: topological == lexicographic when every copy sits alone.
        assert_eq!(PAPER_TABLE2[2][tdv], PAPER_TABLE2[2][ldv]);
        assert_eq!(PAPER_TABLE2[2][otdv], PAPER_TABLE2[2][odv]);
        // E: TDV/OTDV are the minimum of the whole table.
        assert_eq!(PAPER_TABLE2[4][tdv], 0.0);
        assert_eq!(PAPER_TABLE2[4][otdv], 0.0);
    }

    #[test]
    fn table3_missing_cells_are_e_row_topological() {
        for (r, row) in PAPER_TABLE3.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                assert_eq!(
                    cell.is_none(),
                    r == 4 && c >= 4,
                    "only E×TDV and E×OTDV are dashes"
                );
            }
        }
    }
}
