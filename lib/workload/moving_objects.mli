(** Network-based moving-objects workload (after Brinkhoff [8], as in the
    paper's Section 5): objects appear (Insert), report positions as they
    drive shortest paths at per-object rates (Update), and are
    re-dispatched on arrival so the update stream never dries up.
    Deterministic in the seed. *)

type event =
  | Insert of { oid : int; x : int; y : int }
  | Update of { oid : int; x : int; y : int }

type t

val create : ?seed:int -> ?cols:int -> ?rows:int -> unit -> t
val network : t -> Road_network.t

val generate : ?seed:int -> inserts:int -> total:int -> unit -> event list
(** The paper's experiment shape: [inserts] objects followed by updates
    until exactly [total] events. *)

type stats = {
  st_objects : int;
  st_inserts : int;
  st_updates : int;
  st_min_updates : int;
  st_max_updates : int;
  st_mean_updates : float;
}

val stats_of : event list -> stats
