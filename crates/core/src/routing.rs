//! The routing table: per-request state for iterative routing.
//!
//! Every in-flight guest request owns a slot recording where it came from,
//! the (possibly mediated) command, which paths it is outstanding on, which
//! completions re-invoke the classifier, and which completions finish it —
//! "a routing table that tracks each request's state during classification"
//! (§III-C). Slot indices double as the command identifiers NVMetro stamps
//! on forwarded commands, so path completions map back to their request in
//! O(1).

use nvmetro_nvme::{Status, SubmissionEntry};

/// One in-flight request.
#[derive(Clone, Debug)]
pub struct RequestState {
    /// Originating VM.
    pub vm: u32,
    /// Router VM-slot (binding index) the request entered through. Two
    /// queue groups of one VM can share a shard, so `vm` alone does not
    /// identify the owning binding; servicing snapshots map this slot back
    /// to the global queue-group ordinal.
    pub slot: u16,
    /// VSQ index within the VM.
    pub vsq: u16,
    /// Guest-assigned command identifier (restored on completion).
    pub guest_cid: u16,
    /// Current (mediated) command forwarded to paths.
    pub cmd: SubmissionEntry,
    /// Paths the request is outstanding on (see `classify::path_bits`).
    pub pending: u8,
    /// Paths whose completion re-invokes the classifier.
    pub hooks: u8,
    /// Paths whose completion finishes the request.
    pub will_complete: u8,
    /// Latest path status observed.
    pub status: Status,
    /// Classifier scratch state carried across hooks.
    pub user_tag: u64,
    /// Virtual time the request entered the router (latency accounting).
    pub accepted_at: u64,
    /// Every path this request was ever sent down (union of dispatch
    /// masks; unlike `pending` this never clears). Telemetry derives the
    /// request's route attribution from it.
    pub sent_paths: u8,
    /// Time of the first path dispatch (0 = never dispatched).
    pub dispatched_at: u64,
    /// Time the last path leg reported service done (0 = none yet).
    pub serviced_at: u64,
    /// Router-wide sequence number, unique per insert: recovery timers and
    /// retry entries store it so a reused slot never matches a stale timer.
    pub seq: u64,
    /// Times the request was re-dispatched after a retryable failure.
    pub retries: u32,
    /// Absolute deadline of the current dispatch (0 = none armed).
    pub deadline: u64,
    /// Path mask of the latest dispatch, replayed verbatim on retry.
    pub dispatch_send: u8,
    /// Hook mask of the latest dispatch.
    pub dispatch_hooks: u8,
    /// Will-complete mask of the latest dispatch.
    pub dispatch_wc: u8,
    /// Paths abandoned by an abort whose completions may still arrive;
    /// such completions are dropped as late instead of re-entering the
    /// request's state machine.
    pub orphaned: u8,
    /// The guest already received this request's CQE (after an abort with
    /// legs still in flight); the slot lingers only to quarantine the tag.
    pub zombie: bool,
    /// Time the first fault was observed (0 = none); recovery latency runs
    /// from here to final completion.
    pub first_fault_at: u64,
    /// Engine generation the request was admitted under. Bumped on every
    /// restore/reshard; a completion whose slot carries an older generation
    /// than the router's is an epoch-late straggler and is quarantined, so
    /// a pre-snapshot leg can never satisfy a post-restore command.
    pub generation: u32,
}

impl RequestState {
    /// A fresh, undispatched request for guest command `cmd`, accepted at
    /// `accepted_at` through router slot `slot` under `generation`. Its
    /// `seq` stays 0 until the router tracks it.
    pub(crate) fn new(
        vm: u32,
        slot: u16,
        vsq: u16,
        cmd: SubmissionEntry,
        accepted_at: u64,
        generation: u32,
    ) -> Self {
        RequestState {
            vm,
            slot,
            vsq,
            guest_cid: cmd.cid,
            cmd,
            pending: 0,
            hooks: 0,
            will_complete: 0,
            status: Status::SUCCESS,
            user_tag: 0,
            accepted_at,
            sent_paths: 0,
            dispatched_at: 0,
            serviced_at: 0,
            seq: 0,
            retries: 0,
            deadline: 0,
            dispatch_send: 0,
            dispatch_hooks: 0,
            dispatch_wc: 0,
            orphaned: 0,
            zombie: false,
            first_fault_at: 0,
            generation,
        }
    }

    /// Stops waiting on the outstanding legs: they become orphans whose
    /// completions are dropped as late, and no hook or deadline remains.
    pub(crate) fn abandon_legs(&mut self) {
        self.orphaned |= self.pending;
        self.pending = 0;
        self.hooks = 0;
        self.deadline = 0;
    }

    /// The route this request is attributed to for latency accounting:
    /// the heaviest path it touched (notify > kernel > fast), or `None`
    /// if it never left the router.
    pub fn route_bits(&self) -> u8 {
        self.sent_paths
    }
}

enum Slot {
    Free { next_free: Option<u16> },
    Busy(Box<RequestState>),
}

/// A fixed-capacity slab of request states with O(1) alloc/free.
pub struct RoutingTable {
    slots: Vec<Slot>,
    free_head: Option<u16>,
    in_flight: usize,
    high_water: usize,
}

impl RoutingTable {
    /// Creates a table able to track `capacity` concurrent requests
    /// (at most 65 535, since slot indices ride in 16-bit CID fields).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 1 && capacity < u16::MAX as usize,
            "capacity must be in [1, 65534]"
        );
        let slots = (0..capacity)
            .map(|i| Slot::Free {
                next_free: if i + 1 < capacity {
                    Some((i + 1) as u16)
                } else {
                    None
                },
            })
            .collect();
        RoutingTable {
            slots,
            free_head: Some(0),
            in_flight: 0,
            high_water: 0,
        }
    }

    /// Allocates a slot for a new request; `None` when the table is full
    /// (the router then backpressures the VSQ).
    pub fn insert(&mut self, state: RequestState) -> Option<u16> {
        let idx = self.free_head?;
        match self.slots[idx as usize] {
            Slot::Free { next_free } => {
                self.free_head = next_free;
                self.slots[idx as usize] = Slot::Busy(Box::new(state));
                self.in_flight += 1;
                self.high_water = self.high_water.max(self.in_flight);
                Some(idx)
            }
            Slot::Busy(_) => unreachable!("free list points at busy slot"),
        }
    }

    /// Reserves a *specific* slot for `state` (live servicing: a restored
    /// engine pins a quarantined request to the exact tag its old shard
    /// stamped on the in-flight command, so the late completion still maps
    /// back by CID). O(capacity): the free list is unlinked by walking it.
    /// Fails if `tag` is out of range or the slot is already busy.
    pub fn insert_at(&mut self, tag: u16, state: RequestState) -> bool {
        if tag as usize >= self.slots.len() || matches!(self.slots[tag as usize], Slot::Busy(_)) {
            return false;
        }
        // Unlink `tag` from the free list.
        if self.free_head == Some(tag) {
            let Slot::Free { next_free } = self.slots[tag as usize] else {
                unreachable!("checked free above");
            };
            self.free_head = next_free;
        } else {
            let mut cur = self.free_head;
            loop {
                let Some(idx) = cur else {
                    return false; // free slot not on the free list: corrupt
                };
                let Slot::Free { next_free } = self.slots[idx as usize] else {
                    unreachable!("free list points at busy slot");
                };
                if next_free == Some(tag) {
                    let Slot::Free {
                        next_free: tag_next,
                    } = self.slots[tag as usize]
                    else {
                        unreachable!("checked free above");
                    };
                    self.slots[idx as usize] = Slot::Free {
                        next_free: tag_next,
                    };
                    break;
                }
                cur = next_free;
            }
        }
        self.slots[tag as usize] = Slot::Busy(Box::new(state));
        self.in_flight += 1;
        self.high_water = self.high_water.max(self.in_flight);
        true
    }

    /// Iterates every live request as `(tag, state)`, in slot order
    /// (servicing snapshots walk the table with this).
    pub fn iter(&self) -> impl Iterator<Item = (u16, &RequestState)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Busy(state) => Some((i as u16, state.as_ref())),
            Slot::Free { .. } => None,
        })
    }

    /// Accesses a request by tag.
    pub fn get(&self, tag: u16) -> Option<&RequestState> {
        match self.slots.get(tag as usize) {
            Some(Slot::Busy(s)) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to a request by tag.
    pub fn get_mut(&mut self, tag: u16) -> Option<&mut RequestState> {
        match self.slots.get_mut(tag as usize) {
            Some(Slot::Busy(s)) => Some(s),
            _ => None,
        }
    }

    /// Frees a slot, returning its state.
    pub fn remove(&mut self, tag: u16) -> Option<RequestState> {
        let slot = self.slots.get_mut(tag as usize)?;
        if matches!(slot, Slot::Free { .. }) {
            return None;
        }
        let old = std::mem::replace(
            slot,
            Slot::Free {
                next_free: self.free_head,
            },
        );
        self.free_head = Some(tag);
        self.in_flight -= 1;
        match old {
            Slot::Busy(s) => Some(*s),
            Slot::Free { .. } => unreachable!(),
        }
    }

    /// Requests currently tracked.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Maximum concurrent requests ever tracked.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> RequestState {
        RequestState {
            guest_cid: 7,
            ..RequestState::new(0, 0, 0, SubmissionEntry::flush(1), 0, 0)
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = RoutingTable::new(4);
        let tag = t.insert(state()).unwrap();
        assert_eq!(t.get(tag).unwrap().guest_cid, 7);
        assert_eq!(t.in_flight(), 1);
        let removed = t.remove(tag).unwrap();
        assert_eq!(removed.guest_cid, 7);
        assert_eq!(t.in_flight(), 0);
        assert!(t.get(tag).is_none());
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut t = RoutingTable::new(3);
        let tags: Vec<u16> = (0..3).map(|_| t.insert(state()).unwrap()).collect();
        assert!(t.insert(state()).is_none(), "table must be full");
        t.remove(tags[1]).unwrap();
        assert!(t.insert(state()).is_some(), "slot must be reusable");
    }

    #[test]
    fn tags_are_distinct_while_live() {
        let mut t = RoutingTable::new(16);
        let tags: Vec<u16> = (0..16).map(|_| t.insert(state()).unwrap()).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn double_remove_is_none() {
        let mut t = RoutingTable::new(2);
        let tag = t.insert(state()).unwrap();
        assert!(t.remove(tag).is_some());
        assert!(t.remove(tag).is_none());
    }

    #[test]
    fn mutation_persists() {
        let mut t = RoutingTable::new(2);
        let tag = t.insert(state()).unwrap();
        t.get_mut(tag).unwrap().pending = 0b101;
        assert_eq!(t.get(tag).unwrap().pending, 0b101);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut t = RoutingTable::new(8);
        let a = t.insert(state()).unwrap();
        let b = t.insert(state()).unwrap();
        t.remove(a).unwrap();
        t.remove(b).unwrap();
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.high_water(), 2);
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn insert_at_pins_tags_and_keeps_the_free_list_sound() {
        let mut t = RoutingTable::new(8);
        // Pin a mid-list slot, the head, and the tail.
        assert!(t.insert_at(3, state()));
        assert!(t.insert_at(0, state()));
        assert!(t.insert_at(7, state()));
        assert!(!t.insert_at(3, state()), "busy slot must be refused");
        assert!(!t.insert_at(8, state()), "out of range must be refused");
        assert_eq!(t.in_flight(), 3);
        // The remaining 5 slots must still allocate, never colliding with
        // the pinned tags.
        let rest: Vec<u16> = (0..5).map(|_| t.insert(state()).unwrap()).collect();
        assert!(rest.iter().all(|&tag| ![0, 3, 7].contains(&tag)));
        assert!(t.insert(state()).is_none(), "table must now be full");
        assert_eq!(t.iter().count(), 8);
        t.remove(3).unwrap();
        assert_eq!(t.insert(state()).unwrap(), 3, "freed pin must recycle");
    }

    #[test]
    fn churn_reuses_slots_without_leak() {
        let mut t = RoutingTable::new(4);
        for _ in 0..1000 {
            let tag = t.insert(state()).unwrap();
            t.remove(tag).unwrap();
        }
        assert_eq!(t.in_flight(), 0);
        // All capacity still available.
        let tags: Vec<_> = (0..4).map(|_| t.insert(state()).unwrap()).collect();
        assert_eq!(tags.len(), 4);
    }
}
