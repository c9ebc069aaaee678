#![warn(missing_docs)]

//! The paper's availability study, reproduced end to end.
//!
//! This crate packages everything §4 of the paper describes:
//!
//! * [`sites`] — Table 1, verbatim: per-site mean times to fail,
//!   hardware-failure percentages, restart times, hardware repair
//!   distributions, and the 90-day preventive-maintenance schedule of
//!   sites 1, 3 and 5;
//! * [`network`] — the Figure 8 network: eight sites on three
//!   carrier-sense segments joined by two gateway hosts;
//! * [`config`] — the eight copy placements A–H of Table 2;
//! * [`driver`] — the discrete-event simulation: exponential failures,
//!   constant/shifted-exponential repairs, maintenance windows, Poisson
//!   file accesses, driving any [`dynvote_core::policy::AvailabilityPolicy`];
//! * [`run`] — batch-means experiment runner producing unavailability
//!   (Table 2) and mean-outage-duration (Table 3) estimates with 95%
//!   confidence intervals.
//!
//! # Quick example
//!
//! ```
//! use dynvote_availability::{config, network, run, sites};
//! use dynvote_core::policy::Protocol;
//!
//! let params = run::Params::quick_test();
//! let result = run::simulate(Protocol::Ldv, &config::CONFIG_A, &params);
//! assert!(result.unavailability < 0.05);
//! ```

pub mod config;
pub mod driver;
pub mod network;
pub mod run;
pub mod sites;
pub mod spec;

pub use config::{
    Configuration, ALL_CONFIGS, CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D, CONFIG_E, CONFIG_F,
    CONFIG_G, CONFIG_H,
};
pub use driver::Driver;
pub use run::{
    attribute_outages, measure_ttf, simulate, OutageCause, Params, RunResult, TtfResult,
};
pub use sites::{SiteModel, UCSD_SITES};
pub use spec::{parse_study, SpecError, StudySpec};
