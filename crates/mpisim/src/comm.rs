//! Communicators and the collective rendezvous slot.
//!
//! A [`Comm`] is a per-process handle onto shared communicator state: the
//! member list (global ranks in communicator-rank order) and a [`CollSlot`]
//! through which members exchange their collective contributions. `split`
//! and `dup` (implemented in [`crate::proc::Proc`]) derive new communicators
//! group-collectively, exactly like `MPI_Comm_split`/`MPI_Comm_dup` — the
//! mechanism behind the paper's Figure 3.4 experiment where the lower and
//! upper halves of `MPI_COMM_WORLD` run different property functions in
//! parallel.

use ats_runtime::sync::Unpoison;
use ats_runtime::{Rendezvous, VTime};
use std::sync::{Arc, Mutex};

/// One member's contribution to a collective operation.
#[derive(Debug, Clone, Default)]
pub struct Contrib {
    /// The member's virtual clock on entry.
    pub entry: VTime,
    /// Data payload (send buffer contents, or empty).
    pub data: Vec<u8>,
    /// Per-member element counts for irregular ("v") collectives; only the
    /// root's contribution needs to carry this.
    pub counts: Option<Vec<usize>>,
}

/// The rendezvous through which all members of a communicator exchange
/// collective contributions, plus per-round memos of what every member
/// derives from them. One logical collective = one `exchange` call per
/// member; the slot hands every member a shared view of the full
/// contribution vector and a per-communicator sequence number identifying
/// the operation instance.
#[derive(Debug)]
pub struct CollSlot {
    rendezvous: Rendezvous<Contrib>,
    /// Single-entry memo of the exit-time vector for the most recent
    /// collective round (keyed by `seq`): the LogGP stage walk runs once
    /// per collective, not once per member.
    exits: Mutex<Option<(u64, Arc<Vec<VTime>>)>>,
    /// Same idea for the reduction result: combining P contributions is
    /// O(P), so recomputing it per member made reduce/allreduce O(P²) per
    /// round.
    combined: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
}

impl CollSlot {
    fn new(size: usize) -> Self {
        CollSlot {
            rendezvous: Rendezvous::new(size, "MPI collective"),
            exits: Mutex::new(None),
            combined: Mutex::new(None),
        }
    }

    /// Deposit `contrib` as member `me` and return the sequence number of
    /// this collective plus a shared view of everyone's contributions.
    /// `now` is the member's virtual clock on entry.
    ///
    /// # Panics
    /// Panics as an `"MPI collective"` deadlock if a member never arrives
    /// (mismatched membership), and if `me` deposits twice in one round
    /// (program error).
    pub fn exchange(&self, me: usize, contrib: Contrib, now: VTime) -> (u64, Arc<Vec<Contrib>>) {
        self.rendezvous.exchange(me, contrib, now)
    }

    /// Exit-time vector for collective round `seq`, computing it at most
    /// once per round: the first member through runs `compute`, the rest
    /// reuse the memoised result. `compute` must be a pure function of the
    /// round's contributions (it is: the LogGP stage walk).
    pub fn cached_exits(&self, seq: u64, compute: impl FnOnce() -> Vec<VTime>) -> Arc<Vec<VTime>> {
        let mut cache = self.exits.lock().unpoison();
        match &*cache {
            Some((s, exits)) if *s == seq => exits.clone(),
            _ => {
                let exits = Arc::new(compute());
                *cache = Some((seq, exits.clone()));
                exits
            }
        }
    }

    /// Combined reduction payload for collective round `seq`, computed at
    /// most once per round (every member passes the same `op`/`dtype` by
    /// MPI contract, so the result is a pure function of the round).
    pub fn cached_combined(&self, seq: u64, compute: impl FnOnce() -> Vec<u8>) -> Arc<Vec<u8>> {
        let mut cache = self.combined.lock().unpoison();
        match &*cache {
            Some((s, bytes)) if *s == seq => bytes.clone(),
            _ => {
                let bytes = Arc::new(compute());
                *cache = Some((seq, bytes.clone()));
                bytes
            }
        }
    }
}

/// Shared communicator state (one per communicator per run).
#[derive(Debug)]
pub struct CommShared {
    /// Globally unique communicator id within the run.
    pub id: u32,
    /// Global ranks of the members, indexed by communicator-local rank.
    pub members: Vec<usize>,
    /// Collective rendezvous.
    pub slot: CollSlot,
}

impl CommShared {
    /// Create shared state for a communicator over `members`.
    pub fn new(id: u32, members: Vec<usize>) -> Arc<Self> {
        let n = members.len();
        Arc::new(CommShared {
            id,
            members,
            slot: CollSlot::new(n),
        })
    }
}

/// A per-process communicator handle.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) shared: Arc<CommShared>,
    pub(crate) my_rank: usize,
}

impl Comm {
    pub(crate) fn new(shared: Arc<CommShared>, my_rank: usize) -> Self {
        debug_assert!(my_rank < shared.members.len());
        Comm { shared, my_rank }
    }

    /// This process's rank within the communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of members (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// The communicator's run-unique id.
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// Translate a communicator-local rank to a global (world) rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.shared.members[local]
    }

    /// The member list as global ranks.
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_runtime::sched::WaitSet;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn exchange_distributes_all_contributions() {
        let slot = Arc::new(CollSlot::new(4));
        let mut handles = Vec::new();
        for me in 0..4 {
            let slot = slot.clone();
            handles.push(thread::spawn(move || {
                let c = Contrib {
                    entry: VTime(me as u64 * 10),
                    data: vec![me as u8],
                    counts: None,
                };
                slot.exchange(me, c, VTime::ZERO)
            }));
        }
        for h in handles {
            let (seq, all) = h.join().unwrap();
            assert_eq!(seq, 0);
            assert_eq!(all.len(), 4);
            for (i, c) in all.iter().enumerate() {
                assert_eq!(c.data, vec![i as u8]);
                assert_eq!(c.entry, VTime(i as u64 * 10));
            }
        }
    }

    #[test]
    fn sequence_numbers_advance_per_round() {
        let slot = Arc::new(CollSlot::new(2));
        let mut handles = Vec::new();
        for me in 0..2 {
            let slot = slot.clone();
            handles.push(thread::spawn(move || {
                let mut seqs = Vec::new();
                for _ in 0..5 {
                    let (seq, _) = slot.exchange(me, Contrib::default(), VTime::ZERO);
                    seqs.push(seq);
                }
                seqs
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    #[should_panic(expected = "MPI collective blocked for 50ms")]
    fn lone_member_times_out() {
        WaitSet::set_thread_budget(Duration::from_millis(50));
        let slot = CollSlot::new(2);
        slot.exchange(0, Contrib::default(), VTime::ZERO);
    }

    #[test]
    fn cached_exits_computes_once_per_round() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let slot = CollSlot::new(2);
        let computed = AtomicUsize::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::Relaxed);
            vec![VTime(1), VTime(2)]
        };
        let a = slot.cached_exits(0, compute);
        let b = slot.cached_exits(0, || unreachable!("memoised"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let c = slot.cached_exits(1, || vec![VTime(9), VTime(9)]);
        assert_eq!(*c, vec![VTime(9), VTime(9)]);
    }

    #[test]
    fn comm_handle_accessors() {
        let shared = CommShared::new(3, vec![8, 9, 10]);
        let c = Comm::new(shared, 1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(c.id(), 3);
        assert_eq!(c.global_rank(2), 10);
        assert_eq!(c.members(), &[8, 9, 10]);
    }
}
