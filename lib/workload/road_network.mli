(** A synthetic road network for the moving-objects generator — the
    stand-in for Brinkhoff's network-based generator over the Seattle
    map: a connected, jittered grid with irregular topology and speed
    classes, routed by Dijkstra. *)

type node = { nid : int; x : float; y : float }

type t

val generate : ?cols:int -> ?rows:int -> ?removal:float -> Imdb_util.Rng.t -> t
(** A [cols] x [rows] grid; [removal] is the probability that a
    non-bridging edge is dropped (connectivity is guaranteed). *)

val size : t -> int
val edge_count : t -> int

val shortest_path : t -> src:int -> dst:int -> int list option
(** Dijkstra by travel time; the node list from [src] to [dst]. *)

val path_length : t -> int list -> float

val position_along : t -> int list -> travelled:float -> float * float
(** Interpolated position after covering [travelled] distance units. *)
