//! The N-party rendezvous behind MPI collectives and OpenMP team barriers.
//!
//! Every participant deposits one contribution; the last arriver publishes
//! the full vector, and everyone leaves with a shared view of it plus the
//! round's sequence number. A round drains completely before the next one
//! fills, so a fast participant cannot lap a slow one. Waits go through a
//! [`WaitSet`]: cooperative inside a scheduler task, an OS condvar on a
//! plain thread (the MPI thread backend).

use crate::sched::WaitSet;
use crate::sync::Unpoison;
use crate::time::VTime;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct State<T> {
    filling: bool,
    arrived: usize,
    departed: usize,
    contribs: Vec<Option<T>>,
    /// Built once by the last arriver of a round and shared by every
    /// participant: O(P) per round instead of the O(P²) of per-participant
    /// cloning, which is what makes 8k-rank collectives feasible.
    published: Option<Arc<Vec<T>>>,
    seq: u64,
}

/// An all-to-all exchange point for a fixed set of participants.
#[derive(Debug)]
pub struct Rendezvous<T> {
    state: Mutex<State<T>>,
    ws: WaitSet,
    /// What the participants are doing, for deadlock reports.
    reason: &'static str,
}

impl<T> Rendezvous<T> {
    /// A rendezvous for `size` participants; `reason` (say, `"MPI
    /// collective"`) names the waits in deadlock reports.
    pub fn new(size: usize, reason: &'static str) -> Self {
        Rendezvous {
            state: Mutex::new(State {
                filling: true,
                arrived: 0,
                departed: 0,
                contribs: (0..size).map(|_| None).collect(),
                published: None,
                seq: 0,
            }),
            ws: WaitSet::new(),
            reason,
        }
    }

    /// Deposit `contrib` as participant `me` at virtual time `now` and
    /// return this round's sequence number plus everyone's contributions,
    /// indexed by participant.
    ///
    /// # Panics
    /// Panics if `me` deposits twice in one round (a program error). A
    /// missing participant is a deadlock, reported under `reason`: by the
    /// scheduler inside a task, by the [`WaitSet`] budget on a thread.
    pub fn exchange(&self, me: usize, contrib: T, now: VTime) -> (u64, Arc<Vec<T>>) {
        let mut st = self.state.lock().unpoison();
        // Wait out the drain phase of the previous round.
        while !st.filling {
            st = self.ws.wait(&self.state, st, now, self.reason);
        }
        assert!(
            st.contribs[me].is_none(),
            "participant {me} entered the same {} twice",
            self.reason
        );
        st.contribs[me] = Some(contrib);
        st.arrived += 1;
        let size = st.contribs.len();
        if st.arrived == size {
            st.filling = false;
            let all = st
                .contribs
                .iter_mut()
                .map(|c| c.take().expect("every participant deposited"))
                .collect();
            st.published = Some(Arc::new(all));
            self.ws.notify_all(now);
        } else {
            while st.filling {
                st = self.ws.wait(&self.state, st, now, self.reason);
            }
        }
        let seq = st.seq;
        let all = st.published.clone().expect("published by the last arriver");
        st.departed += 1;
        if st.departed == size {
            st.arrived = 0;
            st.departed = 0;
            st.published = None;
            st.seq += 1;
            st.filling = true;
            self.ws.notify_all(now);
        }
        (seq, all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_tasks, MIN_STACK_BYTES};
    use std::time::Duration;

    #[test]
    fn threads_exchange_values_and_rounds() {
        let rv = Rendezvous::new(3, "test");
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|me| {
                    let rv = &rv;
                    s.spawn(move || {
                        let (s0, v0) = rv.exchange(me, me * 10, VTime::ZERO);
                        let (s1, v1) = rv.exchange(me, me + 100, VTime::ZERO);
                        assert_eq!((s0, v0.as_slice()), (0, &[0, 10, 20][..]));
                        assert_eq!((s1, v1.as_slice()), (1, &[100, 101, 102][..]));
                    })
                })
                .collect();
            for h in hs {
                h.join().expect("participant thread");
            }
        });
    }

    #[test]
    fn tasks_share_one_published_vector() {
        let rv = Rendezvous::new(4, "test");
        let seen = Mutex::new(Vec::new());
        run_tasks(
            MIN_STACK_BYTES,
            "test",
            (0..4)
                .map(|me| {
                    let (rv, seen) = (&rv, &seen);
                    Box::new(move || {
                        for round in 0..3u64 {
                            let (seq, all) = rv.exchange(me, me, VTime(round));
                            assert_eq!(seq, round);
                            seen.lock().unpoison().push(all);
                        }
                    }) as Box<dyn FnOnce()>
                })
                .collect(),
        );
        let seen = seen.into_inner().unpoison();
        assert_eq!(seen.len(), 12);
        for round in seen.chunks(4) {
            assert_eq!(*round[0], vec![0, 1, 2, 3]);
            assert!(round.iter().all(|v| Arc::ptr_eq(v, &round[0])));
        }
    }

    #[test]
    #[should_panic(expected = "test barrier blocked for 50ms")]
    fn lone_thread_panics_after_its_budget() {
        WaitSet::set_thread_budget(Duration::from_millis(50));
        let rv = Rendezvous::new(2, "test barrier");
        rv.exchange(0, (), VTime::ZERO);
    }

    #[test]
    fn singleton_is_immediate() {
        let rv = Rendezvous::new(1, "test");
        let (seq, all) = rv.exchange(0, 7u32, VTime::ZERO);
        assert_eq!((seq, all.as_slice()), (0, &[7][..]));
    }
}
