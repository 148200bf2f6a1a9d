(** Adversarial crash/workload torture harness.

    A deterministic, seed-driven loop drives long randomized histories of
    INSERT/UPDATE/DELETE transactions (with aborts, AS OF reads,
    checkpoints and vacuums mixed in) against a real engine over a
    failure-injecting in-memory disk, crashes it at targeted points —
    mid-transaction, mid-time-split, mid-checkpoint, during recovery
    itself, with or without a torn page on the failing write — recovers,
    and verifies {e every} past AS OF time, every record history and the
    current state against the linearized {!Model} oracle.

    Determinism contract: a [config] fully determines the run.  The
    workload PRNGs, the crash schedule, the logical clock and, with
    sessions, the fibers' interleaving all derive from [seed], so a
    failure reproduces from the printed seed alone. *)

module Ts := Imdb_clock.Timestamp

(** Where a scheduled crash aims. *)
type crash_kind =
  | Crash_wal_tail
      (** power loss mid-transaction: no injected I/O error, just dropped
          volatile state while an open transaction's newest log record is
          still in the volatile tail *)
  | Crash_data_write  (** a data-page write fails after a short countdown *)
  | Crash_history_write
      (** the next history-page write fails: mid-time-split, exactly when
          the split persists the historical page *)
  | Crash_meta_write  (** the next meta-page write fails: mid-checkpoint *)
  | Crash_recovery
      (** crash, then fail one of recovery's own writes, then recover
          again: redo/undo idempotence across a double crash *)
  | Crash_buffer_write
      (** the next ingest-buffer-page write fails: the buffered write
          path loses its volatile buffer mirror with messages (possibly
          half-flushed) in flight *)
  | Crash_ptt_post
      (** the checkpoint's PTT posting: alternately, the plug is pulled
          right after the posting group's log append (before the
          checkpoint record and meta write), or right after a completed
          checkpoint, before any access reads a posted mapping *)

val crash_kind_name : crash_kind -> string
val all_crash_kinds : crash_kind list

type crash_point = {
  cp_commit : int;  (** arm once this many transactions have committed *)
  cp_kind : crash_kind;
  cp_torn : bool;  (** tear the page on the failing write *)
}

(** Deliberate oracle/engine disagreement, for detector self-tests: a
    sabotaged run MUST fail.  [Skew_stamp n] records every n-th commit in
    the oracle one timestamp early — what an engine stamping bug looks
    like from the oracle's side; [Drop_write n] omits every n-th commit's
    first write — a lost update. *)
type sabotage = Skew_stamp of int | Drop_write of int

type config = {
  seed : int;
  ops : int;  (** write-operation budget (a transaction carries 1–4) *)
  crashes : int;  (** scheduled crash points *)
  tables : int;
  keys_per_table : int;
  page_size : int;
  pool_capacity : int;
  auto_checkpoint_every : int;
  verify_every : int;
      (** full oracle verification every n commits even without a crash
          (0 = only after recoveries and at the end) *)
  verify_limit : int;
      (** cap on AS OF times checked per table per verification, newest
          checked densely, older ones by stride (0 = every one) *)
  bulk : bool;
      (** mix in bulk-insert transactions (~1 in 12): 16–48 upserts in
          one transaction, stressing the buffered-ingestion flush path *)
  sessions : int;
      (** > 1: the run is bursts of this many sessions, each over its own
          key partition, their commits merged into the oracle in
          timestamp order (see {!run}).  1 (the default): one session
          over every key. *)
  sabotage : sabotage option;
  schedule : crash_point list option;  (** [None]: derived from [seed] *)
  log : (string -> unit) option;  (** replay mode: every action printed *)
  flight_dir : string option;
      (** write a flight-recorder report (monitor samples, session stats,
          lock dump, slow-op traces, metrics) into this directory when a
          run fails — what CI uploads as the failure artifact *)
}

val default : config
(** The capped profile: 10_000 ops, 60 crashes, 2 tables × 48 keys,
    1 KiB pages, a 12-frame pool, full verification. *)

val schedule_of : config -> crash_point list
(** The crash schedule a run will use (derived from the seed unless
    overridden) — what the minimizer shrinks. *)

(** The run's tally, filled in as it goes. *)
type report = {
  r_seed : int;
  mutable r_ops : int;  (** write ops executed *)
  mutable r_commits : int;
  mutable r_aborts : int;
  mutable r_crashes : int;  (** crash points that actually fired *)
  mutable r_crash_kinds : (string * int) list;  (** fired count per kind name *)
  mutable r_torn : int;  (** crashes that tore the failing write *)
  mutable r_recoveries : int;
  mutable r_double_recoveries : int;  (** recoveries that crashed and re-ran *)
  mutable r_volatile_drops : int;
      (** wal-tail crashes that dropped a volatile log record of an open
          transaction *)
  mutable r_asof_checks : int;  (** full-state AS OF comparisons *)
  mutable r_boundary_checks : int;  (** comparisons just below a commit timestamp *)
  mutable r_history_checks : int;  (** per-key history comparisons *)
  mutable r_point_checks : int;  (** AS OF point reads of sampled keys *)
  mutable r_spot_checks : int;  (** inline mid-run AS OF spot checks *)
  mutable r_time_splits : int;
  mutable r_checkpoints : int;
  mutable r_torn_rebuilt : int;  (** pages recovery rebuilt after checksum failure *)
}

type failure = {
  f_seed : int;
  f_op : int;  (** write-op counter at failure *)
  f_commits : int;
  f_msg : string;
  f_trace : string list;  (** most recent actions, oldest first *)
  f_replay : string;
      (** the [imdb torture] command line that replays the run, with
          [--bulk] / [--sessions N] when it used them (a minimized run's
          explicit schedule has no flag) *)
}

type outcome = Passed of report | Failed of failure

val run : ?spawn:((unit -> unit) array -> unit) -> config -> outcome
(** [spawn] runs a burst's session bodies to completion.  By default they
    are {!Fibers} on this domain, yielding at every [Park] wait, page
    write, log sync and op boundary, and a due crash point of any kind
    fires at a yield.  A [spawn] that starts them on real domains (and
    joins them all, re-raising the first exception) cross-checks the
    fibers: crash points then fire in serial ops between bursts, and the
    interleaving does not replay. *)

val minimize : config -> failure -> config * failure
(** Shrink a failing run: truncate the op budget to the failing op, then
    greedily drop crash points while the failure persists.  Returns the
    smallest still-failing config and its failure (deterministic; every
    candidate is a full re-run). *)

val pp_report : Format.formatter -> report -> unit
val pp_failure : Format.formatter -> failure -> unit

val describe_config : config -> string
(** One line: seed / ops / crashes / schedule summary, for artifacts. *)
