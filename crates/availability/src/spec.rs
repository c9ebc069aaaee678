//! A plain-text study specification: define a network, site models and
//! copy placements without writing code.
//!
//! The `study` binary runs a Table 2-style comparison over any spec; the
//! Figure 8 study itself round-trips through this format
//! ([`ucsd_spec_text`]). One directive per line, `#` starts a comment:
//!
//! ```text
//! # segments and gateways (Figure 8 shape)
//! segment main 0 1 2 3 4
//! segment second 5
//! segment third 6 7
//! bridge 3 second
//! bridge 4 third
//!
//! # one site directive per site:
//! #   site INDEX NAME mttf_days=D hw=FRAC restart_min=M hw_floor_h=H hw_exp_h=H
//! #       [maint_every_days=D maint_hours=H]
//! site 0 csvax mttf_days=36.5 hw=0.10 restart_min=20 hw_floor_h=0 hw_exp_h=2 maint_every_days=90 maint_hours=3
//! site 1 beowulf mttf_days=10 hw=0.10 restart_min=15 hw_floor_h=4 hw_exp_h=24
//!
//! # copy placements to evaluate
//! config A 0 1 3
//! config B 0 1 5
//!
//! # optional: Poisson file-access rate per day (default 1.0)
//! access_rate 1.0
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;

use dynvote_sim::Duration;
use dynvote_topology::{Network, NetworkBuilder};
use dynvote_types::SiteSet;

use crate::sites::SiteModel;

/// A parsed study: everything [`crate::run::run_trace`] needs.
#[derive(Debug)]
pub struct StudySpec {
    /// The network topology.
    pub network: Network,
    /// Per-site failure models, indexed by site.
    pub models: Vec<SiteModel>,
    /// Named copy placements to evaluate.
    pub configs: Vec<(String, SiteSet)>,
    /// Poisson file-access rate (accesses/day).
    pub access_rate: f64,
}

/// A specification error with its 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

fn parse_num(line: usize, token: &str, what: &str) -> Result<f64, SpecError> {
    token
        .parse::<f64>()
        .map_err(|e| err(line, format!("bad {what} {token:?}: {e}")))
}

fn parse_index(line: usize, token: Option<&str>, what: &str) -> Result<usize, SpecError> {
    let index = token
        .ok_or_else(|| err(line, format!("missing {what}")))?
        .parse::<usize>()
        .map_err(|e| err(line, format!("bad {what}: {e}")))?;
    check_index(line, index, what)
}

fn check_index(line: usize, index: usize, what: &str) -> Result<usize, SpecError> {
    if index >= dynvote_types::MAX_SITES {
        return Err(err(
            line,
            format!(
                "{what} {index} out of range (at most {} sites)",
                dynvote_types::MAX_SITES
            ),
        ));
    }
    Ok(index)
}

/// Parses a study specification.
///
/// # Errors
///
/// Returns the first error with its line number: unknown directives,
/// malformed numbers, missing site models, bridges to undeclared
/// segments, or configs naming unmodelled sites.
pub fn parse_study(text: &str) -> Result<StudySpec, SpecError> {
    let mut builder = NetworkBuilder::new();
    let mut declared_segments = 0usize;
    let mut site_models: BTreeMap<usize, SiteModel> = BTreeMap::new();
    let mut configs: Vec<(String, SiteSet)> = Vec::new();
    let mut access_rate = 1.0f64;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut words = text.split_whitespace();
        match words.next().expect("non-empty line") {
            "segment" => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line, "missing segment name"))?;
                let mut members = Vec::new();
                for tok in words {
                    let index = tok
                        .parse::<usize>()
                        .map_err(|e| err(line, format!("bad site index: {e}")))?;
                    members.push(check_index(line, index, "site index")?);
                }
                builder = builder.segment(name, members);
                declared_segments += 1;
            }
            "bridge" => {
                let gateway = parse_index(line, words.next(), "gateway site")?;
                let to = words
                    .next()
                    .ok_or_else(|| err(line, "missing target segment"))?;
                builder = builder.bridge(gateway, to);
            }
            "site" => {
                let index = parse_index(line, words.next(), "site index")?;
                let name = words
                    .next()
                    .ok_or_else(|| err(line, "missing site name"))?
                    .to_string();
                let mut fields: BTreeMap<&str, f64> = BTreeMap::new();
                for tok in words {
                    let (key, value) = tok
                        .split_once('=')
                        .ok_or_else(|| err(line, format!("expected key=value, got {tok:?}")))?;
                    fields.insert(key, parse_num(line, value, key)?);
                }
                let take = |fields: &BTreeMap<&str, f64>, key: &str| -> Result<f64, SpecError> {
                    fields
                        .get(key)
                        .copied()
                        .ok_or_else(|| err(line, format!("site needs {key}=")))
                };
                let maintenance = match (fields.get("maint_every_days"), fields.get("maint_hours"))
                {
                    (Some(&every), Some(&hours)) => {
                        Some((Duration::days(every), Duration::hours(hours)))
                    }
                    (None, None) => None,
                    _ => {
                        return Err(err(
                            line,
                            "maintenance needs both maint_every_days= and maint_hours=",
                        ))
                    }
                };
                let model = SiteModel {
                    name: Cow::Owned(name),
                    mttf: Duration::days(take(&fields, "mttf_days")?),
                    hw_fraction: take(&fields, "hw")?,
                    restart: Duration::minutes(take(&fields, "restart_min")?),
                    hw_floor: Duration::hours(take(&fields, "hw_floor_h")?),
                    hw_mean: Duration::hours(take(&fields, "hw_exp_h")?),
                    maintenance,
                };
                if !(0.0..=1.0).contains(&model.hw_fraction) {
                    return Err(err(line, "hw= must be a fraction in [0, 1]"));
                }
                if model.mttf.is_zero() {
                    return Err(err(line, "mttf_days= must be positive"));
                }
                if site_models.insert(index, model).is_some() {
                    return Err(err(line, format!("site {index} declared twice")));
                }
            }
            "config" => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line, "missing config name"))?;
                let mut copies = SiteSet::EMPTY;
                for tok in words {
                    let site = tok
                        .parse::<usize>()
                        .map_err(|e| err(line, format!("bad site index: {e}")))?;
                    let site = check_index(line, site, "site index")?;
                    copies.insert(dynvote_types::SiteId::new(site));
                }
                if copies.is_empty() {
                    return Err(err(line, "config needs at least one copy site"));
                }
                configs.push((name.to_string(), copies));
            }
            "access_rate" => {
                let value = words.next().ok_or_else(|| err(line, "missing rate"))?;
                access_rate = parse_num(line, value, "access rate")?;
                if access_rate < 0.0 {
                    return Err(err(line, "access_rate must be non-negative"));
                }
            }
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        }
    }

    if declared_segments == 0 {
        return Err(err(0, "at least one segment is required"));
    }
    let network = builder
        .build()
        .map_err(|e| err(0, format!("invalid topology: {e}")))?;

    // Every network site needs a model; models form a dense vector.
    let max_site = network
        .sites()
        .max()
        .ok_or_else(|| err(0, "the network has no sites"))?
        .index();
    let mut models = Vec::with_capacity(max_site + 1);
    for i in 0..=max_site {
        match site_models.remove(&i) {
            Some(model) => models.push(model),
            None => {
                if network.sites().contains(dynvote_types::SiteId::new(i)) {
                    return Err(err(
                        0,
                        format!("site {i} is on a segment but has no site directive"),
                    ));
                }
                // A hole in the index space: fill with an inert model.
                models.push(SiteModel {
                    name: Cow::Borrowed("unused"),
                    mttf: Duration::days(1e12),
                    hw_fraction: 0.0,
                    restart: Duration::minutes(1.0),
                    hw_floor: Duration::ZERO,
                    hw_mean: Duration::ZERO,
                    maintenance: None,
                });
            }
        }
    }
    if let Some((&extra, _)) = site_models.iter().next() {
        return Err(err(
            0,
            format!("site {extra} has a model but is on no segment"),
        ));
    }
    for (name, copies) in &configs {
        if !copies.is_subset_of(network.sites()) {
            return Err(err(
                0,
                format!("config {name} places copies on sites outside the network"),
            ));
        }
    }
    if configs.is_empty() {
        return Err(err(0, "at least one config is required"));
    }

    Ok(StudySpec {
        network,
        models,
        configs,
        access_rate,
    })
}

/// The Figure 8 / Table 1 study, expressed in the spec format — both
/// documentation-by-example and a round-trip test anchor.
#[must_use]
pub fn ucsd_spec_text() -> &'static str {
    "\
# Figure 8: three carrier-sense segments joined by two gateway hosts.
segment main 0 1 2 3 4
segment second 5
segment third 6 7
bridge 3 second
bridge 4 third

# Table 1 (paper site k = index k-1).
site 0 csvax   mttf_days=36.5 hw=0.10 restart_min=20 hw_floor_h=0   hw_exp_h=2   maint_every_days=90 maint_hours=3
site 1 beowulf mttf_days=10   hw=0.10 restart_min=15 hw_floor_h=4   hw_exp_h=24
site 2 grendel mttf_days=365  hw=0.90 restart_min=10 hw_floor_h=0   hw_exp_h=2   maint_every_days=90 maint_hours=3
site 3 wizard  mttf_days=50   hw=0.50 restart_min=15 hw_floor_h=168 hw_exp_h=168
site 4 amos    mttf_days=365  hw=0.90 restart_min=10 hw_floor_h=0   hw_exp_h=2   maint_every_days=90 maint_hours=3
site 5 gremlin mttf_days=50   hw=0.50 restart_min=15 hw_floor_h=168 hw_exp_h=168
site 6 rip     mttf_days=50   hw=0.50 restart_min=15 hw_floor_h=168 hw_exp_h=168
site 7 mangle  mttf_days=50   hw=0.50 restart_min=15 hw_floor_h=168 hw_exp_h=168

# Table 2's eight placements.
config A 0 1 3
config B 0 1 5
config C 0 5 7
config D 5 6 7
config E 0 1 2 3
config F 0 1 3 5
config G 0 1 5 7
config H 0 1 6 7

access_rate 1.0
"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ucsd_network;
    use crate::sites::UCSD_SITES;

    #[test]
    fn ucsd_spec_round_trips() {
        let spec = parse_study(ucsd_spec_text()).unwrap();
        let reference = ucsd_network();
        assert_eq!(spec.network.sites(), reference.sites());
        assert_eq!(spec.network.segment_count(), reference.segment_count());
        assert_eq!(spec.network.gateways(), reference.gateways());
        assert_eq!(spec.models.len(), 8);
        for (parsed, reference) in spec.models.iter().zip(UCSD_SITES.iter()) {
            assert_eq!(parsed.name, reference.name);
            assert_eq!(parsed.mttf, reference.mttf);
            assert_eq!(parsed.hw_fraction, reference.hw_fraction);
            assert_eq!(parsed.restart, reference.restart);
            assert_eq!(parsed.hw_floor, reference.hw_floor);
            assert_eq!(parsed.hw_mean, reference.hw_mean);
            assert_eq!(parsed.maintenance, reference.maintenance);
        }
        assert_eq!(spec.configs.len(), 8);
        assert_eq!(spec.configs[0].0, "A");
        assert_eq!(
            spec.configs[7].1,
            crate::config::CONFIG_H.copies,
            "config H matches the built-in"
        );
        assert_eq!(spec.access_rate, 1.0);
    }

    #[test]
    fn minimal_spec() {
        let spec = parse_study(
            "segment all 0 1 2\n\
             site 0 a mttf_days=10 hw=0 restart_min=15 hw_floor_h=0 hw_exp_h=0\n\
             site 1 b mttf_days=10 hw=0 restart_min=15 hw_floor_h=0 hw_exp_h=0\n\
             site 2 c mttf_days=10 hw=0 restart_min=15 hw_floor_h=0 hw_exp_h=0\n\
             config X 0 1 2\n",
        )
        .unwrap();
        assert_eq!(spec.network.segment_count(), 1);
        assert_eq!(spec.access_rate, 1.0, "default rate");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("frobnicate 1", "unknown directive"),
            ("segment a x", "bad site index"),
            ("site 0", "missing site name"),
            ("site 0 a mttf_days=ten", "bad mttf_days"),
            ("site 0 a hw=0.1", "site needs mttf_days="),
            (
                "site 0 a mttf_days=1 hw=2 restart_min=1 hw_floor_h=0 hw_exp_h=0",
                "fraction",
            ),
            (
                "site 0 a mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0 maint_hours=3",
                "both",
            ),
            ("config X", "at least one copy"),
            ("access_rate -1", "non-negative"),
        ];
        for (text, expect) in cases {
            let e = parse_study(text).unwrap_err();
            assert!(
                e.message.contains(expect),
                "{text:?} gave {:?}, wanted {expect:?}",
                e.message
            );
            assert_eq!(e.line, 1, "{text:?}");
        }
    }

    #[test]
    fn whole_file_validation() {
        // Missing model for a declared site.
        let e = parse_study("segment a 0 1\nsite 0 x mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\nconfig X 0\n").unwrap_err();
        assert!(e.message.contains("site 1"), "{e}");
        // Model for an undeclared site.
        let e = parse_study(
            "segment a 0\n\
             site 0 x mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n\
             site 3 y mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n\
             config X 0\n",
        )
        .unwrap_err();
        assert!(e.message.contains("site 3"), "{e}");
        // Config outside the network.
        let e = parse_study(
            "segment a 0\n\
             site 0 x mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n\
             config X 0 5\n",
        )
        .unwrap_err();
        assert!(e.message.contains("outside the network"), "{e}");
        // No configs at all.
        let e = parse_study(
            "segment a 0\nsite 0 x mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n",
        )
        .unwrap_err();
        assert!(e.message.contains("config"), "{e}");
        // Duplicate site directive.
        let e = parse_study(
            "segment a 0\n\
             site 0 x mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n\
             site 0 y mttf_days=1 hw=0 restart_min=1 hw_floor_h=0 hw_exp_h=0\n\
             config X 0\n",
        )
        .unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn parsed_spec_actually_simulates() {
        use crate::run::{run_trace, Params};
        use dynvote_core::policy::Protocol;
        let spec = parse_study(
            "segment a 0 1 2\n\
             site 0 x mttf_days=20 hw=1 restart_min=15 hw_floor_h=0 hw_exp_h=12\n\
             site 1 y mttf_days=20 hw=1 restart_min=15 hw_floor_h=0 hw_exp_h=12\n\
             site 2 z mttf_days=20 hw=1 restart_min=15 hw_floor_h=0 hw_exp_h=12\n\
             config X 0 1 2\n",
        )
        .unwrap();
        let params = Params {
            batch_len: dynvote_sim::Duration::days(1_000.0),
            batches: 3,
            ..Params::quick_test()
        };
        let (name, copies) = &spec.configs[0];
        let policy = Protocol::Ldv.build(*copies, &spec.network);
        let results = run_trace(&spec.network, &spec.models, vec![policy], &params, name);
        assert!(results[0].unavailability < 0.05);
    }
}
