(** Session-level exit accounting and the counter-vs-analytic
    crosscheck.

    [of_session] concatenates the rows {!Observe.capture} read from each
    recorded cell's machines into an {!Armvirt_obs.Accounting.t} — the
    data behind `armvirt stat`, exact at any run length.

    [crosscheck] is the validation the observability layer owes the
    paper reproduction: it drives every hypervisor model's Table I
    operations and compares the machine's own accounting (exit counts
    and exit→entry latencies from its counters and marker pairing, span
    means from a private tracer) against what the {e analytic} cost
    model predicts.

    Three families of checks, with their documented tolerances:

    - {b Exit counts} (tolerance 0%): the per-reason exit-marker counts
      of a full microbenchmark suite must be exact multiples of the
      iteration count — the Figure 4-style exit mix is structural, not
      statistical, in a deterministic simulator.
    - {b Table III reconstruction} (tolerance 1%): mean durations of the
      [arm.save.<class>]/[arm.restore.<class>] spans in a traced KVM ARM
      hypercall must equal {!Armvirt_arch.Cost_model.arm_default}'s
      register-class costs (the model plays them back exactly; 1% covers
      integer rounding of means).
    - {b Hypercall latency} (1% vs the composed path costs, 5% vs
      {!Paper_data.table2}): the exit-marker → entry-marker distance of a
      hypercall must equal the sum of the analytic path terms, and —
      after adding the guest-side issue cost the marker excludes — land
      within 5% of the paper's published cycle count. *)

val of_session : unit -> Armvirt_obs.Accounting.t
(** Accounting over {!Observe.cells} of the current session. *)

type check = {
  model : string;  (** e.g. ["KVM ARM"], as in the migrate configs. *)
  name : string;  (** What was compared. *)
  measured : float;  (** Value the model's run gave. *)
  expected : float;  (** Analytic (or paper) value. *)
  tolerance_pct : float;
}

val check_ok : check -> bool
(** Relative error within [tolerance_pct] (expected 0 requires
    measured 0). *)

val crosscheck : ?iterations:int -> unit -> check list
(** Runs the traced suites on all five hypervisor models ([iterations]
    defaults to 8) and returns every comparison made. *)

val pp_checks : Format.formatter -> check list -> unit
(** One line per check, [ok]/[FAIL] tagged, failures last. *)
