(** The paper's timestamping discipline, transplanted to the simulator.

    Section IV: "Measurements were obtained using cycle counters ...
    Instruction barriers were used before and after taking timestamps to
    avoid out-of-order execution or pipelining from skewing our
    measurements." In the simulator a timestamp read is exact, but the
    barrier still has a cost on the measured CPU, so we model it: each
    {!read} performs the barrier delay before returning the counter value,
    exactly like an [isb; mrs; isb] sequence occupies the pipeline.

    [measure] brackets a simulated operation between two barriered reads
    and subtracts the measurement overhead, which is what the paper's
    custom kernel driver does around each microbenchmark iteration. *)

type t

val create : barrier_cost:Armvirt_engine.Cycles.t -> t

val read : t -> Armvirt_engine.Cycles.t
(** Must run inside a simulation process: performs the barrier delay, then
    returns the current cycle count. *)

val measure : t -> (unit -> unit) -> Armvirt_engine.Cycles.t
(** [measure t f] runs [f] between barriered timestamps and returns the
    elapsed cycles of [f] alone, with the trailing barrier cost
    subtracted out (the paper subtracts measured null-loop overhead the
    same way). *)
