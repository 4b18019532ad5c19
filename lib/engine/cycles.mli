(** Cycle counts: the unit of simulated time.

    All simulated durations and timestamps in the library are expressed in
    CPU cycles, mirroring the paper's methodology of reporting
    microbenchmarks in cycles "to provide a useful comparison across server
    hardware with different CPU frequencies" (ISCA'16, section IV). *)

type t
(** A non-negative number of cycles. The representation is a native [int],
    giving 62 usable bits: at 2.4 GHz this covers ~60 years of simulated
    time, far beyond any experiment in this repository. *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] is [n] cycles. Raises [Invalid_argument] if [n < 0]. *)

val to_int : t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t

val to_us : hz:float -> t -> float
(** [to_us ~hz c] converts [c] cycles to microseconds on a CPU running at
    [hz] hertz, used when reproducing the paper's Table V which reports
    microseconds on the 2.4 GHz ARM machine. *)

val of_us : hz:float -> float -> t
(** [of_us ~hz us] is the number of cycles covering [us] microseconds at
    [hz] hertz, rounded to the nearest cycle. *)

val pp : Format.formatter -> t -> unit
(** Prints with thousands separators, e.g. [6,500], matching the paper's
    table style. *)
