//! A directory of replicated files — the Gemini framing.
//!
//! The paper comes out of the Gemini replicated *file system* \[BMP87\]:
//! many files, each with its own copy placement and its own partition
//! set, over one population of sites. [`Directory`] provides exactly
//! that: named files created with per-file placements, witnesses and
//! protocols, sharing a single liveness/partition state, so one gateway
//! failure affects every file whose copies straddle it — and each
//! file's quorum adjusts independently, which is the whole point of
//! per-file partition sets.
//!
//! # Examples
//!
//! ```
//! use dynvote_replica::{Directory, Protocol};
//! use dynvote_topology::Network;
//! use dynvote_types::SiteId;
//!
//! let mut dir = Directory::new(Network::single_segment(4));
//! dir.create("etc/passwd", [0, 1, 2], [], Protocol::Odv, "root:*".to_string()).unwrap();
//! dir.create("var/log", [1, 2, 3], [], Protocol::Tdv, String::new()).unwrap();
//!
//! dir.fail_site(SiteId::new(0)); // affects only files with a copy on S0
//! dir.write("etc/passwd", SiteId::new(1), "root:x".to_string()).unwrap();
//! assert_eq!(dir.read("var/log", SiteId::new(3)).unwrap(), "");
//! ```

use std::collections::BTreeMap;

use dynvote_topology::Network;
use dynvote_types::{AccessError, SiteId, SiteSet};

use crate::{Cluster, ClusterBuilder, Protocol};

/// Errors from directory-level operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectoryError {
    /// No file with that name exists.
    NoSuchFile(String),
    /// A file with that name already exists.
    AlreadyExists(String),
    /// The underlying protocol refused the access.
    Access(AccessError),
}

impl core::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DirectoryError::NoSuchFile(name) => write!(f, "no such file: {name:?}"),
            DirectoryError::AlreadyExists(name) => write!(f, "file exists: {name:?}"),
            DirectoryError::Access(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

impl From<AccessError> for DirectoryError {
    fn from(e: AccessError) -> Self {
        DirectoryError::Access(e)
    }
}

/// A set of replicated files over one population of sites.
///
/// Liveness (site up/down) and forced partitions are directory-wide —
/// they model the world — while every file keeps its own consistency
/// state, placement, witnesses and protocol.
pub struct Directory<T> {
    network: Network,
    files: BTreeMap<String, Cluster<T>>,
    /// Liveness applied to every current and future file.
    down: SiteSet,
    forced: Option<Vec<SiteSet>>,
}

impl<T: Clone> Directory<T> {
    /// An empty directory over `network`, all sites up.
    #[must_use]
    pub fn new(network: Network) -> Self {
        Directory {
            network,
            files: BTreeMap::new(),
            down: SiteSet::EMPTY,
            forced: None,
        }
    }

    /// The shared network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Creates a replicated file.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::AlreadyExists`] for duplicate names.
    ///
    /// # Panics
    ///
    /// Panics (via [`ClusterBuilder`]) when the placement is invalid
    /// for the network.
    pub fn create<C, W>(
        &mut self,
        name: &str,
        copies: C,
        witnesses: W,
        protocol: Protocol,
        initial: T,
    ) -> Result<(), DirectoryError>
    where
        C: IntoIterator<Item = usize>,
        W: IntoIterator<Item = usize>,
    {
        if self.files.contains_key(name) {
            return Err(DirectoryError::AlreadyExists(name.to_string()));
        }
        let mut cluster = ClusterBuilder::new()
            .network(self.network.clone())
            .copies(copies)
            .witnesses(witnesses)
            .protocol(protocol)
            .build_with_value(initial);
        // Bring the new file in line with the directory's world state.
        for site in self.down.iter() {
            cluster.fail_site(site);
        }
        if let Some(groups) = &self.forced {
            cluster.force_partition(groups.clone());
        }
        self.files.insert(name.to_string(), cluster);
        Ok(())
    }

    /// Removes a file, returning whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        self.files.remove(name).is_some()
    }

    /// The file names, sorted.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Direct access to one file's cluster (for inspection).
    #[must_use]
    pub fn file(&self, name: &str) -> Option<&Cluster<T>> {
        self.files.get(name)
    }

    fn file_mut(&mut self, name: &str) -> Result<&mut Cluster<T>, DirectoryError> {
        self.files
            .get_mut(name)
            .ok_or_else(|| DirectoryError::NoSuchFile(name.to_string()))
    }

    /// READ from a file at `origin`.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchFile`] or the protocol's ABORT reason.
    pub fn read(&mut self, name: &str, origin: SiteId) -> Result<T, DirectoryError> {
        Ok(self.file_mut(name)?.read(origin)?)
    }

    /// WRITE to a file at `origin`.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchFile`] or the protocol's ABORT reason.
    pub fn write(&mut self, name: &str, origin: SiteId, value: T) -> Result<(), DirectoryError> {
        Ok(self.file_mut(name)?.write(origin, value)?)
    }

    /// RECOVER one file's copy at `site`.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchFile`] or the protocol's ABORT reason.
    pub fn recover(&mut self, name: &str, site: SiteId) -> Result<(), DirectoryError> {
        Ok(self.file_mut(name)?.recover(site)?)
    }

    /// Runs RECOVER for `site` on **every** file that hosts a copy or
    /// witness there, returning how many succeeded — what a site's
    /// restart script would do.
    pub fn recover_all(&mut self, site: SiteId) -> usize {
        self.files
            .values_mut()
            .filter(|f| f.participants().contains(site))
            .filter_map(|f| f.recover(site).ok())
            .count()
    }

    /// Fails a site, for every file.
    pub fn fail_site(&mut self, site: SiteId) {
        self.down.insert(site);
        for file in self.files.values_mut() {
            file.fail_site(site);
        }
    }

    /// Repairs a site, for every file (liveness only; see
    /// [`Directory::recover_all`]).
    pub fn repair_site(&mut self, site: SiteId) {
        self.down.remove(site);
        for file in self.files.values_mut() {
            file.repair_site(site);
        }
    }

    /// Forces a partition, for every file.
    ///
    /// # Panics
    ///
    /// Panics when the groups overlap.
    pub fn force_partition(&mut self, groups: Vec<SiteSet>) {
        for file in self.files.values_mut() {
            file.heal_partition();
            file.force_partition(groups.clone());
        }
        self.forced = Some(groups);
    }

    /// Heals any forced partition, for every file.
    pub fn heal_partition(&mut self) {
        self.forced = None;
        for file in self.files.values_mut() {
            file.heal_partition();
        }
    }

    /// Total invariant violations across all files.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.files
            .values()
            .map(|f| f.checker().violations().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory<String> {
        let mut d = Directory::new(Network::single_segment(4));
        d.create("a", [0, 1, 2], [], Protocol::Odv, "a0".to_string())
            .unwrap();
        d.create("b", [1, 2, 3], [], Protocol::Ldv, "b0".to_string())
            .unwrap();
        d
    }

    #[test]
    fn files_are_independent() {
        let mut d = dir();
        d.write("a", SiteId::new(0), "a1".into()).unwrap();
        assert_eq!(d.read("b", SiteId::new(3)).unwrap(), "b0");
        assert_eq!(d.read("a", SiteId::new(2)).unwrap(), "a1");
        // Quorum state diverges per file.
        d.fail_site(SiteId::new(0));
        d.write("a", SiteId::new(1), "a2".into()).unwrap();
        assert_eq!(
            d.file("a").unwrap().state_at(SiteId::new(1)).partition,
            SiteSet::from_indices([1, 2])
        );
        assert_eq!(
            d.file("b").unwrap().state_at(SiteId::new(1)).partition,
            SiteSet::from_indices([1, 2, 3]),
            "b has no copy on S0: untouched"
        );
    }

    #[test]
    fn liveness_is_shared() {
        let mut d = dir();
        d.fail_site(SiteId::new(1));
        d.fail_site(SiteId::new(2));
        // a: {0} of 3 — S0 is max, loses? {0} is 1 of 3: refused.
        assert!(d.read("a", SiteId::new(0)).is_err());
        // b: {3} of {1,2,3} — 1 of 3: refused.
        assert!(d.read("b", SiteId::new(3)).is_err());
        d.repair_site(SiteId::new(1));
        assert!(d.read("a", SiteId::new(1)).is_ok());
        assert!(d.read("b", SiteId::new(1)).is_ok());
    }

    #[test]
    fn late_created_files_inherit_world_state() {
        let mut d = dir();
        d.fail_site(SiteId::new(3));
        d.create("c", [2, 3], [], Protocol::Odv, "c0".to_string())
            .unwrap();
        // S3 is down for the new file too: S2 loses the {2,3} tie? max
        // of {2,3} = S2 under the default lexicon — it wins.
        assert!(d.read("c", SiteId::new(2)).is_ok());
        d.fail_site(SiteId::new(2));
        d.repair_site(SiteId::new(3));
        // S3 alone lost the tie (max S2 absent) — refused.
        assert!(d.read("c", SiteId::new(3)).is_err());
    }

    #[test]
    fn recover_all_touches_only_hosting_files() {
        let mut d = dir();
        d.fail_site(SiteId::new(3));
        d.write("b", SiteId::new(1), "b1".into()).unwrap();
        d.repair_site(SiteId::new(3));
        let recovered = d.recover_all(SiteId::new(3));
        assert_eq!(recovered, 1, "only file b hosts S3");
        assert_eq!(d.file("b").unwrap().value_at(SiteId::new(3)), "b1");
    }

    #[test]
    fn name_management() {
        let mut d = dir();
        assert_eq!(d.file_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(
            d.create("a", [0], [], Protocol::Odv, String::new()),
            Err(DirectoryError::AlreadyExists("a".to_string()))
        );
        assert!(d.remove("a"));
        assert!(!d.remove("a"));
        assert!(matches!(
            d.read("a", SiteId::new(0)),
            Err(DirectoryError::NoSuchFile(_))
        ));
    }

    #[test]
    fn partitions_apply_to_every_file() {
        let mut d = dir();
        d.force_partition(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([2, 3]),
        ]);
        // a ({0,1,2}): majority side is {0,1}.
        assert!(d.read("a", SiteId::new(0)).is_ok());
        assert!(d.read("a", SiteId::new(2)).is_err());
        // b ({1,2,3}): majority side is {2,3}.
        assert!(d.read("b", SiteId::new(2)).is_ok());
        assert!(d.read("b", SiteId::new(1)).is_err());
        d.heal_partition();
        assert!(d.read("a", SiteId::new(2)).is_ok());
        assert_eq!(d.total_violations(), 0);
    }
}
