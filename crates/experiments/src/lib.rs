#![warn(missing_docs)]

//! Shared infrastructure for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one artefact of the paper's
//! evaluation (see DESIGN.md's experiment index). This library holds
//! what they share: the paper's published numbers (for side-by-side
//! "paper vs. measured" output), a tiny command-line parser, markdown
//! table rendering, and the parallel row runner behind `table2`/`table3`.

pub mod cli;
pub mod output;
pub mod paper;
pub mod runner;

pub use cli::CliParams;
pub use output::Table;
pub use runner::simulate_all_rows;
