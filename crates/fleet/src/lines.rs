//! Dense addressing for per-(taxon, architecture) state: the policy
//! cache's lines and the feedback layer's cells.
//!
//! A taxon is one of `4 × 256` values, so a line is addressed by plain
//! arithmetic, `arch × TAXA + taxon`, once its architecture name is
//! interned. Names intern by content, so two equal strings at different
//! addresses share one architecture. Iteration walks the ids in
//! `(Taxon, name)` order — the order the ordered maps these tables
//! replace walked their keys in — so encoders, LRU tie-breaks and
//! float folds over the lines see the same sequence they always did.

use crate::job::{JobClass, Taxon};

/// Distinct taxa: every class times every signature byte.
const TAXA: usize = JobClass::ALL.len() * 256;

/// An architecture interned in one [`LineKeys`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArchId(u32);

/// The address of one `(taxon, architecture)` line in the tables of the
/// [`LineKeys`] that interned its architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LineId(usize);

impl LineId {
    /// The line of `taxon` on `arch`, by arithmetic alone.
    #[inline]
    pub(crate) fn new(taxon: Taxon, arch: ArchId) -> Self {
        LineId(arch.0 as usize * TAXA + taxon.class as usize * 256 + taxon.signature as usize)
    }

    /// Index into a table sized by [`LineKeys::lines`].
    #[inline]
    pub(crate) fn at(self) -> usize {
        self.0
    }
}

/// The interned architecture names behind a set of line tables.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineKeys {
    /// Interned names, indexed by [`ArchId`].
    names: Vec<&'static str>,
    /// Arch ids sorted by name.
    by_name: Vec<ArchId>,
}

impl LineKeys {
    /// The id of `name`, if interned.
    pub(crate) fn arch(&self, name: &str) -> Option<ArchId> {
        self.names
            .iter()
            .position(|&n| n == name)
            .map(|a| ArchId(a as u32))
    }

    /// The id of `name`, interning it first if it is new. Tables
    /// indexed by these keys must be resized to [`LineKeys::lines`]
    /// afterwards.
    pub(crate) fn intern(&mut self, name: &'static str) -> ArchId {
        if let Some(a) = self.arch(name) {
            return a;
        }
        let a = ArchId(self.names.len() as u32);
        let at = self
            .by_name
            .partition_point(|b| self.names[b.0 as usize] < name);
        self.names.push(name);
        self.by_name.insert(at, a);
        a
    }

    /// The line of `(taxon, name)`, if `name` is interned.
    pub(crate) fn line(&self, taxon: Taxon, name: &str) -> Option<LineId> {
        self.arch(name).map(|a| LineId::new(taxon, a))
    }

    /// Lines addressable so far: the length every table must have.
    pub(crate) fn lines(&self) -> usize {
        self.names.len() * TAXA
    }

    /// Every addressable line with its key, in `(Taxon, name)` order.
    pub(crate) fn ordered(&self) -> impl Iterator<Item = (LineId, Taxon, &'static str)> + '_ {
        (0..TAXA).flat_map(move |t| {
            let taxon = Taxon {
                class: JobClass::ALL[t / 256],
                signature: (t % 256) as u8,
            };
            self.by_name.iter().map(move |&a| {
                (
                    LineId(a.0 as usize * TAXA + t),
                    taxon,
                    self.names[a.0 as usize],
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_walks_taxon_then_name_and_interns_by_content() {
        let mut keys = LineKeys::default();
        let rk = keys.intern("rk3399");
        let xu = keys.intern("odroid-xu4");
        let leaked: &'static str = Box::leak(String::from("rk3399").into_boxed_str());
        assert_eq!(keys.intern(leaked), rk, "equal text is one architecture");
        assert_ne!(rk, xu);
        assert_eq!(keys.lines(), 2 * TAXA);

        let order: Vec<(Taxon, &str)> = keys.ordered().map(|(_, t, n)| (t, n)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 2 * TAXA);
        for (id, t, n) in keys.ordered() {
            assert_eq!(keys.line(t, n), Some(id));
        }
    }
}
