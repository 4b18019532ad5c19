(** Stage-2 dirty-page tracking for live migration pre-copy.

    The mechanism every migrating hypervisor uses (KVM's dirty bitmap,
    Xen's log-dirty mode): demote the guest's writable stage-2 mappings
    to read-only, let the first write to each page take a permission
    fault, record the page as dirty and restore write access. Each
    pre-copy round {!harvest}s the accumulated set and re-arms the
    protection, so a page costs one fault per round however many times
    it is written.

    Representation: the tracked set is an ascending array of the pages
    {!start} demoted, so a page's position in it (its slot) is found by
    binary search; the dirty set is one flag per slot plus the dirty
    slots in fault order. A {!write} allocates nothing, only {!harvest}
    allocates (its result), and no exception is raised on a normal
    path.

    Pure mechanism, like {!Stage2} and {!Tlb}: no simulated time is
    consumed here. Callers price each [`Wp_fault] through their cost
    model (trap + {!Armvirt_arch.Cost_model.arm.stage2_wp_fault} + TLB
    maintenance + re-entry) — the same layering the cold-start workload
    uses. *)

type t

val create : Stage2.t -> t
(** Wraps a stage-2 table. The table stays usable through its own API;
    the log only flips permissions on it. *)

val stage2 : t -> Stage2.t

val start : t -> unit
(** Enables logging: write-protects every currently-writable mapping and
    clears the dirty set. Pages the guest maps read-only are left alone
    and never reported dirty. Raises [Invalid_argument] if already
    logging. One ascending pass over the table, O(mappings). *)

val stop : t -> unit
(** Disables logging and restores write permission on every tracked
    page that is still read-only. Raises [Invalid_argument] if not
    logging. O(tracked pages). *)

val write : t -> ipa_page:int -> [ `Clean_hit | `Wp_fault ]
(** One guest store to [ipa_page]. [`Wp_fault] means this was the first
    write to the page since {!start} or the last {!harvest}: the page is
    now dirty and writable again, and the caller owes the fault cost.
    [`Clean_hit] is a full-speed write (logging off, or the page already
    dirty this round). Raises {!Stage2.Stage2_fault} [(Unmapped _)] for
    a page with no mapping at all, and [(Permission _)] for a write to a
    page the {e guest} maps read-only — a real fault, not a logging
    artifact. A clean hit is one permission check; a write-protect
    fault adds a binary search of the tracked set and an in-place flip
    of the PTE. *)

val harvest : t -> int list
(** Atomically returns the dirty pages (ascending page order — the
    deterministic transmit order, each page once), clears the set, and
    re-write-protects the harvested pages for the next round. Raises
    [Invalid_argument] if not logging. Sorts only the dirty pages:
    O(d log d) for d dirty pages. *)

val dirty_count : t -> int
(** Pages dirtied since the last {!harvest} (or {!start}). *)

val is_dirty : t -> ipa_page:int -> bool
(** A binary search of the tracked set. *)

val tracked_count : t -> int
(** Pages under dirty logging (writable when {!start} ran). *)

val wp_faults : t -> int
(** Total write-protect faults taken since {!create}. *)

val rounds : t -> int
(** Number of {!harvest} calls since {!create}. *)

val logging : t -> bool
