(** Crash-safe, content-addressed on-disk warm store.

    A store is a directory holding a compact index snapshot ([index.bin]),
    an append-only record log ([log.bin]) and a PID lock file ([LOCK]).
    Both files carry a caller-supplied {e fingerprint} in their header;
    opening with a different fingerprint discards every stale entry, so a
    model change invalidates the store by construction rather than by
    discipline.

    Records are namespaced [(ns, key) -> value] blobs, each framed with a
    length header and an FNV-1a-64 checksum. Reads stop at the first torn
    or corrupt record, so a crash mid-append loses at most the tail of the
    log — never the snapshot. {!flush} compacts the table into a fresh
    snapshot via write-to-temp + [rename] (atomic on POSIX) and only then
    resets the log; a crash between the two replays harmless duplicates.

    Cross-process safety: the writer holds [LOCK] (created [O_EXCL],
    containing its PID). A second opener detects the live owner and falls
    back to a read-only view; a lock left by a dead process is reclaimed.

    Every outcome is counted under the [store.*] {!Obs} counters. *)

type t

type mode =
  | Read_write  (** Holds the lock; puts are persisted. *)
  | Read_only
      (** Lock contention fallback, or the state a failed write (full
          disk, I/O error) leaves behind; puts are dropped. *)

type stats = {
  path : string;
  mode : mode;
  entries : int;  (** Live [(ns, key)] pairs in memory. *)
  hits : int;  (** {!find} successes since open. *)
  misses : int;  (** {!find} failures since open. *)
  puts : int;  (** Value-changing {!put}s since open. *)
  invalidated : bool;  (** Open discarded a stale-fingerprint store. *)
  recovered : int;  (** Torn/corrupt records dropped at open. *)
  write_errors : int;
      (** Failed log appends and snapshot writes since open; the first one
          degrades the store to {!Read_only}. *)
  log_bytes : int;  (** Current size of the append log. *)
  index_bytes : int;  (** Current size of the snapshot. *)
}

val open_ :
  ?readonly:bool -> path:string -> fingerprint:string -> unit -> (t, string) result
(** Open (creating if needed) the store directory at [path]. With
    [readonly] (default false) no lock is taken and no file is written.
    Lock contention from a live process degrades to {!Read_only} rather
    than failing; only filesystem errors (permissions, [path] exists as a
    file, ...) return [Error]. *)

val mode : t -> mode
val path : t -> string
val fingerprint : t -> string

val find : t -> ns:string -> string -> string option
val mem : t -> ns:string -> string -> bool

val put : t -> ns:string -> string -> string -> unit
(** Insert or replace. Re-putting the identical value is free (no log
    traffic); in a {!Read_only} store the call is dropped and counted. *)

val iter : t -> ns:string -> (string -> string -> unit) -> unit
(** Apply [f key value] to every entry of the namespace (unspecified
    order). *)

val entries : t -> int

val flush : t -> unit
(** Compact into a fresh snapshot (write-temp, [fsync], [rename]) and
    reset the log. No-op when nothing changed or {!Read_only}. Never
    raises: a failed write or [fsync] is counted ([store.write_errors])
    and degrades the store to {!Read_only}, like a failed log append in
    {!put}. *)

val gc : t -> int
(** {!flush}, returning how many superseded log records the compaction
    retired. *)

val clear : t -> unit
(** Drop every entry and persist the empty state. *)

val close : t -> unit
(** {!flush} if dirty, release the lock (also after a write failure
    degraded the store), close descriptors. The handle must not be used
    afterwards; [close] is idempotent. *)

val stats : t -> stats
