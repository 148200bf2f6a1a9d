(** Deterministic PRNG (splitmix64): workload generation and failure
    injection must reproduce across runs and platforms, so the stdlib
    [Random] (no sequence-compatibility contract) is avoided. *)

type t

val create : int -> t

val int : t -> int -> int
(** Uniform in [0, bound).  @raise Invalid_argument on bound <= 0. *)

val int_in : t -> int -> int -> int
(** Uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
val choose : t -> 'a array -> 'a
val shuffle : t -> 'a array -> unit
