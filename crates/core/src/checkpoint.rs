//! In-memory buddy checkpoints for crash recovery.
//!
//! Every active node keeps (1) a snapshot of its *own* rows and (2) a
//! mirror of its ring predecessor's rows — its **buddy**. The buddy of
//! relative rank `r` in an `n`-member group is `(r + 1) % n`: each node
//! sends its snapshot one step *forward* around the ring, so every
//! member's data survives the loss of that member (single simultaneous
//! failure; see DESIGN.md §14 for the invariant and its limits).
//!
//! Refreshes are collective and piggyback on the points where the row
//! distribution is already settled: setup, every redistribution, and an
//! optional cycle interval ([`crate::DynMpiConfig::checkpoint_interval_cycles`]).
//! The invariant after every refresh: **snapshot row sets equal the
//! current distribution's row sets**, so a recovery can rebuild exactly
//! the pre-crash ownership from checkpoints alone.
//!
//! On a confirmed death, every survivor rolls its own rows back from its
//! snapshot ([`BuddyCheckpoint::restore_generation`]); the dead node's
//! buddy holder materializes the mirrored rows locally
//! ([`BuddyCheckpoint::materialize_mirror`]) and then stands in for the
//! dead node in the recovery redistribution
//! ([`crate::redist::execute_cached`] with a `stand_in`).

use dynmpi_comm::{Group, Transport};
use dynmpi_obs as obs;

use crate::array::RedistArray;
use crate::dist::Distribution;
use crate::rowset::RowSet;

/// Checkpoint traffic tag space (above the move/ghost/runtime tags).
/// Refresh payload tags are salted with the refresh epoch so a payload
/// from a refresh that some rank skipped on a timeout can never be
/// mistaken for the next refresh's payload (it stays unconsumed).
const TAG_CKPT: u64 = (1 << 33) + 0x50_0000;

/// Recovery metadata: the holder's broadcast of which checkpoint
/// generation the recovery rolls back to.
pub(crate) const TAG_CKPT_META: u64 = (1 << 33) + 0x58_0000;

/// Per-array refresh payload tag for a given refresh epoch.
fn ckpt_tag(epoch: u64, array_index: usize) -> u64 {
    TAG_CKPT + ((epoch & 0x3FF) << 4) + array_index as u64
}

/// Counter: checkpoint refreshes executed (collective rounds).
pub const CKPT_REFRESHES: &str = "ckpt.refreshes";

/// Counter: payload bytes this rank sent into buddy mirrors.
pub const CKPT_BYTES_SENT: &str = "ckpt.bytes_sent";

/// Counter: refreshes whose mirror receive timed out (the predecessor
/// died mid-refresh); the previous mirror is kept.
pub const CKPT_REFRESH_TIMEOUTS: &str = "ckpt.refresh_timeouts";

/// One node's snapshot: per-array `(rows, packed payload)`.
type Snapshot = Vec<(RowSet, Vec<u8>)>;

/// One completed refresh of this rank's own rows, together with the
/// membership and distribution it was taken under (a recovery that rolls
/// back to this generation must redistribute *from* exactly this state).
struct Generation {
    epoch: u64,
    app_cycle: u64,
    members: Vec<usize>,
    counts: Vec<usize>,
    own: Snapshot,
}

/// The mirror of the ring predecessor, stamped with the generation it
/// completed in. A refresh whose mirror receive times out keeps the
/// previous mirror *and its older stamp* — that stamp is what tells the
/// recovery which generation is actually restorable.
struct Mirror {
    of: usize,
    app_cycle: u64,
    snap: Snapshot,
}

/// The buddy-checkpoint state one rank carries.
///
/// Two generations of the own-row snapshot are kept: a node can die
/// *between* sending its refresh payload and the detector confirming it
/// (in-flight control samples mask the death for a few cycles), leaving
/// the buddy's mirror one refresh behind everyone's latest snapshot. The
/// previous generation lets every survivor roll back to the generation
/// the mirror actually holds. A mirror stale by **two** refreshes is
/// unrecoverable (documented in DESIGN.md §14) — the detector's sustain
/// window is far shorter than two refresh intervals in any sane
/// configuration.
#[derive(Default)]
pub struct BuddyCheckpoint {
    cur: Option<Generation>,
    prev: Option<Generation>,
    mirror: Option<Mirror>,
}

impl BuddyCheckpoint {
    pub fn new() -> Self {
        BuddyCheckpoint::default()
    }

    /// Refresh generation of the current snapshot (0 = none taken).
    pub fn epoch(&self) -> u64 {
        self.cur.as_ref().map(|g| g.epoch).unwrap_or(0)
    }

    /// Application cycle the latest snapshot rolls back to.
    pub fn app_cycle(&self) -> u64 {
        self.cur.as_ref().map(|g| g.app_cycle).unwrap_or(0)
    }

    /// World rank whose mirror this rank holds, if any.
    pub fn holds_mirror_of(&self) -> Option<usize> {
        self.mirror.as_ref().map(|m| m.of)
    }

    /// Application cycle the held mirror's data corresponds to — older
    /// than [`Self::app_cycle`] when the last refresh's mirror receive
    /// timed out.
    pub fn mirror_app_cycle(&self) -> Option<u64> {
        self.mirror.as_ref().map(|m| m.app_cycle)
    }

    /// Rows in the held mirror (0 without one).
    pub fn mirror_rows(&self) -> usize {
        self.mirror
            .as_ref()
            .map(|m| m.snap.iter().map(|(rows, _)| rows.len()).sum())
            .unwrap_or(0)
    }

    /// Collectively refreshes the checkpoint over `group` (every member
    /// must call this at the same point): snapshots my `dist` rows for
    /// every array, sends them to my ring successor, and receives my ring
    /// predecessor's snapshot as the mirror I hold. A single-member group
    /// keeps only the local snapshot (no buddy exists to mirror on).
    ///
    /// `app_cycle` stamps the application progress the snapshot encodes —
    /// recovery resumes from that cycle.
    ///
    /// `recv_timeout` (seconds) guards the mirror receive so a
    /// predecessor that died mid-refresh cannot hang the collective: on
    /// a timeout the previous mirror is kept (its row sets may be stale
    /// if a redistribution happened since — the narrow window DESIGN.md
    /// §14 documents). `None` = plain blocking receive.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh<T: Transport>(
        &mut self,
        t: &T,
        me: usize,
        group: &Group,
        dist: &Distribution,
        arrays: &mut [&mut dyn RedistArray],
        app_cycle: u64,
        recv_timeout: Option<f64>,
    ) {
        let rel = group
            .rel_of(me)
            .expect("checkpoint refresh by a non-member");
        let n = group.size();
        let traced = obs::enabled();
        if traced {
            obs::span_begin("ckpt", "refresh", t.now_ns());
        }
        obs::count(CKPT_REFRESHES, 1);

        let epoch = self.epoch() + 1;
        let my_rows = dist.rows_of(rel);
        let own: Snapshot = arrays
            .iter_mut()
            .map(|arr| (my_rows.clone(), arr.pack_rows(&my_rows, false)))
            .collect();
        self.prev = self.cur.take();
        self.cur = Some(Generation {
            epoch,
            app_cycle,
            members: group.members().to_vec(),
            counts: dist.counts(),
            own,
        });

        if n > 1 {
            let succ = group.world_rank((rel + 1) % n);
            let pred_rel = (rel + n - 1) % n;
            let pred = group.world_rank(pred_rel);
            let pred_rows = dist.rows_of(pred_rel);
            let mut bytes = 0u64;
            // Rows are derivable from shared state (`dist`), so payloads
            // need no headers — the same discipline as redistribution.
            let own = &self.cur.as_ref().expect("just set").own;
            for (ai, (_, payload)) in own.iter().enumerate() {
                bytes += payload.len() as u64;
                t.send_bytes(succ, ckpt_tag(epoch, ai), payload.clone());
            }
            let mut mirror: Snapshot = Vec::with_capacity(arrays.len());
            let mut complete = true;
            for ai in 0..arrays.len() {
                let payload = match recv_timeout {
                    Some(secs) => match t.recv_bytes_timeout(pred, ckpt_tag(epoch, ai), secs) {
                        Ok(p) => p,
                        Err(_) => {
                            complete = false;
                            break;
                        }
                    },
                    None => t.recv_bytes(pred, ckpt_tag(epoch, ai)),
                };
                mirror.push((pred_rows.clone(), payload));
            }
            if complete {
                self.mirror = Some(Mirror {
                    of: pred,
                    app_cycle,
                    snap: mirror,
                });
            } else {
                // Keep the previous mirror with its older stamp: the
                // stamp tells a later recovery which generation the
                // mirrored data belongs to.
                obs::count(CKPT_REFRESH_TIMEOUTS, 1);
            }
            obs::count(CKPT_BYTES_SENT, bytes);
        } else {
            self.mirror = None;
        }
        if traced {
            obs::span_end(t.now_ns());
        }
    }

    /// Rolls this rank's own rows back to the snapshot of the generation
    /// stamped `app_cycle` (the holder's mirror stamp, broadcast during
    /// recovery): every array's snapshot rows are (re)allocated and
    /// overwritten with the checkpointed payload. Ghost rows are left
    /// stale — the recovery redistribution refreshes every ghost
    /// afterwards. Returns the generation's membership and distribution,
    /// which the recovery must redistribute *from*.
    ///
    /// Panics when neither kept generation matches: the peer died across
    /// two refresh windows, which the fault model does not cover.
    pub fn restore_generation(
        &self,
        app_cycle: u64,
        arrays: &mut [&mut dyn RedistArray],
    ) -> (Vec<usize>, Distribution) {
        let gen = [self.cur.as_ref(), self.prev.as_ref()]
            .into_iter()
            .flatten()
            .find(|g| g.app_cycle == app_cycle)
            .unwrap_or_else(|| {
                panic!(
                    "checkpoint: no generation at cycle {app_cycle} — the peer died across \
                     two refresh windows (unrecoverable under the single-failure model)"
                )
            });
        assert_eq!(
            gen.own.len(),
            arrays.len(),
            "checkpoint covers a different array count"
        );
        for (arr, (rows, payload)) in arrays.iter_mut().zip(&gen.own) {
            arr.alloc_rows(rows);
            arr.unpack_rows(rows, payload);
        }
        (
            gen.members.clone(),
            Distribution::block_from_counts(&gen.counts),
        )
    }

    /// Materializes the held mirror into this rank's arrays (the buddy
    /// holder's half of recovery: it now physically holds the dead node's
    /// rows and can stand in for it). Returns the number of restored rows
    /// per array summed. Panics if no mirror is held.
    pub fn materialize_mirror(&self, arrays: &mut [&mut dyn RedistArray]) -> usize {
        let snap = &self
            .mirror
            .as_ref()
            .expect("materialize_mirror without a held mirror")
            .snap;
        assert_eq!(
            snap.len(),
            arrays.len(),
            "mirror covers a different array count"
        );
        let mut restored = 0;
        for (arr, (rows, payload)) in arrays.iter_mut().zip(snap) {
            arr.alloc_rows(rows);
            arr.unpack_rows(rows, payload);
            restored += rows.len();
        }
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use dynmpi_comm::run_threads;

    #[test]
    fn ring_mirrors_predecessor_and_restores() {
        let nrows = 9;
        let out = run_threads(3, move |t| {
            let me = t.rank();
            let g = Group::world(me, 3);
            let d = Distribution::block_from_counts(&[3, 3, 3]);
            let mut m = DenseMatrix::<f64>::new(nrows, 1);
            m.fill_rows(&d.rows_of(me), |i, _| (10 * i) as f64);

            let mut ckpt = BuddyCheckpoint::new();
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                ckpt.refresh(t, me, &g, &d, &mut arrays, 4, None);
            }
            assert_eq!(ckpt.epoch(), 1);
            assert_eq!(ckpt.app_cycle(), 4);
            // Ring: I hold my predecessor's mirror.
            let pred = (me + 2) % 3;
            assert_eq!(ckpt.holds_mirror_of(), Some(pred));
            assert_eq!(ckpt.mirror_rows(), 3);

            // Corrupt my rows, then roll back from the snapshot.
            m.fill_rows(&d.rows_of(me), |_, _| -1.0);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                let (members, gd) = ckpt.restore_generation(4, &mut arrays);
                assert_eq!(members, vec![0, 1, 2]);
                assert_eq!(gd.counts(), vec![3, 3, 3]);
            }
            for i in d.rows_of(me).iter() {
                assert_eq!(m.row(i)[0], (10 * i) as f64);
            }

            // Materialize the predecessor's rows as its stand-in.
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                assert_eq!(ckpt.materialize_mirror(&mut arrays), 3);
            }
            let pred_rows = d.rows_of(pred);
            for i in pred_rows.iter() {
                assert_eq!(m.row(i)[0], (10 * i) as f64, "mirrored row {i}");
            }
            m.present_rows().len()
        });
        // Everyone ended with own + predecessor rows present.
        assert_eq!(out, vec![6, 6, 6]);
    }

    #[test]
    fn single_member_group_keeps_local_snapshot_only() {
        run_threads(1, |t| {
            let g = Group::world(0, 1);
            let d = Distribution::block_even(4, 1);
            let mut m = DenseMatrix::<f64>::new(4, 1);
            m.fill_rows(&d.rows_of(0), |i, _| i as f64);
            let mut ckpt = BuddyCheckpoint::new();
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                ckpt.refresh(t, 0, &g, &d, &mut arrays, 1, None);
            }
            assert_eq!(ckpt.holds_mirror_of(), None);
            m.fill_rows(&d.rows_of(0), |_, _| 9.0);
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                ckpt.restore_generation(1, &mut arrays);
            }
            assert_eq!(m.row(2)[0], 2.0);
        });
    }

    /// The masked-death window: a second refresh runs while one member is
    /// already dead. Its buddy keeps the older mirror (with the older
    /// stamp), and the *previous* own-row generation restores data
    /// consistent with that stamp on every survivor.
    #[test]
    fn timed_out_refresh_keeps_previous_generation_consistent() {
        let out = run_threads(3, move |t| {
            let me = t.rank();
            let g = Group::world(me, 3);
            let d = Distribution::block_from_counts(&[2, 2, 2]);
            let mut m = DenseMatrix::<f64>::new(6, 1);
            m.fill_rows(&d.rows_of(me), |i, _| i as f64);
            let mut ckpt = BuddyCheckpoint::new();
            {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                ckpt.refresh(t, me, &g, &d, &mut arrays, 3, None);
            }
            // Rank 1 "dies": it skips the second refresh entirely. Rank 2
            // (its buddy) times out on the mirror receive — emulated with
            // a zero-second timeout it is guaranteed to hit because rank 1
            // never sends an epoch-2 payload (the epoch-salted tag makes
            // the old payload unmatchable).
            m.fill_rows(&d.rows_of(me), |i, _| 100.0 + i as f64);
            if me != 1 {
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                let timeout = if me == 2 { Some(0.05) } else { None };
                ckpt.refresh(t, me, &g, &d, &mut arrays, 7, timeout);
                assert_eq!(ckpt.app_cycle(), 7);
            }
            if me == 2 {
                // Mirror kept from the first refresh, stamp intact.
                assert_eq!(ckpt.holds_mirror_of(), Some(1));
                assert_eq!(ckpt.mirror_app_cycle(), Some(3));
                // Rolling back to the stamp restores generation-1 data.
                m.fill_rows(&d.rows_of(me), |_, _| -1.0);
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                let (members, gd) = ckpt.restore_generation(3, &mut arrays);
                assert_eq!(members, vec![0, 1, 2]);
                assert_eq!(gd.counts(), vec![2, 2, 2]);
                for i in d.rows_of(2).iter() {
                    assert_eq!(m.row(i)[0], i as f64);
                }
                let mut arrays: Vec<&mut dyn RedistArray> = vec![&mut m];
                assert_eq!(ckpt.materialize_mirror(&mut arrays), 2);
                for i in d.rows_of(1).iter() {
                    assert_eq!(m.row(i)[0], i as f64, "mirrored row {i}");
                }
            }
            ckpt.epoch()
        });
        assert_eq!(out, vec![2, 1, 2]);
    }
}
