let c_hit = Obs.Counter.make "store.hit"
let c_miss = Obs.Counter.make "store.miss"
let c_put = Obs.Counter.make "store.put"
let c_put_skip = Obs.Counter.make "store.put_skip"
let c_drop = Obs.Counter.make "store.readonly_drop"
let c_flush = Obs.Counter.make "store.flush"
let c_evict = Obs.Counter.make "store.evict"
let c_invalid = Obs.Counter.make "store.invalidated"
let c_recovered = Obs.Counter.make "store.recovered"
let c_contention = Obs.Counter.make "store.lock_contention"
let c_stale_lock = Obs.Counter.make "store.lock_stale"
let c_write_error = Obs.Counter.make "store.write_errors"

type mode = Read_write | Read_only

type stats = {
  path : string;
  mode : mode;
  entries : int;
  hits : int;
  misses : int;
  puts : int;
  invalidated : bool;
  recovered : int;
  write_errors : int;
  log_bytes : int;
  index_bytes : int;
}

type t = {
  dir : string;
  fp : string;
  mutable mode : mode;  (* a write failure degrades it to [Read_only] *)
  locked : bool;  (* holds [LOCK], released by [close] *)
  table : (string * string, string) Hashtbl.t;
  mutable log_oc : out_channel option;  (* None once closed / read-only *)
  mutable dirty : bool;
  mutable closed : bool;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable superseded : int;  (* log records a later put made dead *)
  mutable invalidated : bool;
  mutable recovered : int;
  mutable write_errors : int;
  lock : Mutex.t;
}

let index_file t = Filename.concat t.dir "index.bin"
let log_file t = Filename.concat t.dir "log.bin"
let tmp_file t = Filename.concat t.dir "index.tmp"
let lock_file dir = Filename.concat dir "LOCK"

(* ------------------------------------------------------------------ *)
(* Record framing: 'R' | ns_len u16 | key_len u32 | val_len u32 |
   ns key value | fnv1a64 over everything before the checksum.        *)

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv64 s lo hi =
  let h = ref fnv_basis in
  for i = lo to hi - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let header_line fp = Printf.sprintf "optstore 1 %s\n" fp
let max_blob = 64 * 1024 * 1024

let add_record buf ~ns ~key ~value =
  let start = Buffer.length buf in
  Buffer.add_char buf 'R';
  Buffer.add_uint16_le buf (String.length ns);
  Buffer.add_int32_le buf (Int32.of_int (String.length key));
  Buffer.add_int32_le buf (Int32.of_int (String.length value));
  Buffer.add_string buf ns;
  Buffer.add_string buf key;
  Buffer.add_string buf value;
  let body = Buffer.contents buf in
  Buffer.add_int64_le buf (fnv64 body start (String.length body))

(* Parse records of [s] starting at [off]; feed each to [f]. Returns
   [(good_offset, torn)]: the end of the last intact record and whether
   anything after it had to be discarded. *)
let parse_records s off f =
  let len = String.length s in
  let pos = ref off and good = ref off and torn = ref false in
  (try
     while !pos < len do
       let p = !pos in
       if len - p < 11 then raise Exit;
       if s.[p] <> 'R' then raise Exit;
       let ns_len = String.get_uint16_le s (p + 1) in
       let key_len = Int32.to_int (String.get_int32_le s (p + 3)) in
       let val_len = Int32.to_int (String.get_int32_le s (p + 7)) in
       if
         key_len < 0 || val_len < 0 || key_len > max_blob || val_len > max_blob
       then raise Exit;
       let body_end = p + 11 + ns_len + key_len + val_len in
       if body_end + 8 > len then raise Exit;
       let sum = fnv64 s p body_end in
       if String.get_int64_le s body_end <> sum then raise Exit;
       let ns = String.sub s (p + 11) ns_len in
       let key = String.sub s (p + 11 + ns_len) key_len in
       let value = String.sub s (p + 11 + ns_len + key_len) val_len in
       f ns key value;
       pos := body_end + 8;
       good := !pos
     done
   with Exit -> torn := true);
  (!good, !torn)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception _ -> None)

(* ------------------------------------------------------------------ *)
(* Locking *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM etc.: someone owns it *)

let try_lock dir =
  let path = lock_file dir in
  let attempt () =
    match Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd ->
        let pid = string_of_int (Unix.getpid ()) in
        ignore (Unix.write_substring fd pid 0 (String.length pid));
        Unix.close fd;
        `Locked
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> `Held
    | exception Unix.Unix_error _ -> `Error
  in
  match attempt () with
  | (`Locked | `Error) as r -> r
  | `Held -> (
      let owner =
        match read_file path with
        | Some s -> int_of_string_opt (String.trim s)
        | None -> None
      in
      match owner with
      | Some pid when pid <> Unix.getpid () && pid_alive pid -> `Busy
      | _ ->
          (* Stale (dead owner, unreadable, or our own leftover). *)
          Obs.Counter.incr c_stale_lock;
          (try Sys.remove path with Sys_error _ -> ());
          (match attempt () with
          | `Locked -> `Locked
          | `Held -> `Busy
          | `Error -> `Error))

(* ------------------------------------------------------------------ *)

let load t =
  let check_header s =
    let h = header_line t.fp in
    let n = String.length h in
    if String.length s >= n && String.sub s 0 n = h then `Ok n
    else if String.length s >= 9 && String.sub s 0 9 = "optstore " then `Stale
    else `Corrupt
  in
  let replay s off =
    let replaced = ref 0 in
    let good, torn =
      parse_records s off (fun ns key value ->
          if Hashtbl.mem t.table (ns, key) then incr replaced;
          Hashtbl.replace t.table (ns, key) value)
    in
    t.superseded <- t.superseded + !replaced;
    if torn then begin
      t.recovered <- t.recovered + 1;
      Obs.Counter.incr c_recovered
    end;
    (good, torn)
  in
  let stale = ref false in
  let load_one path =
    match read_file path with
    | None -> `Absent
    | Some s -> (
        match check_header s with
        | `Ok off ->
            let good, torn = replay s off in
            if torn then `Torn good else `Ok
        | `Stale ->
            stale := true;
            `Bad
        | `Corrupt ->
            t.recovered <- t.recovered + 1;
            Obs.Counter.incr c_recovered;
            `Bad)
  in
  let idx = load_one (index_file t) in
  (* A stale index means every entry predates the current model: drop
     the log too, whatever it says. *)
  let log = if !stale then `Bad else load_one (log_file t) in
  if !stale then begin
    Hashtbl.reset t.table;
    t.invalidated <- true;
    Obs.Counter.incr c_invalid
  end;
  if t.mode = Read_write then begin
    (* Retire unusable files so appends land on a clean prefix. *)
    let remove p = try Sys.remove p with Sys_error _ -> () in
    (match idx with
    | `Bad -> remove (index_file t)
    | `Torn _ | `Ok | `Absent -> ());
    match log with
    | `Bad -> remove (log_file t)
    | `Torn good -> (
        try Unix.truncate (log_file t) good with Unix.Unix_error _ -> ())
    | `Ok | `Absent -> ()
  end

let open_log t =
  if t.mode = Read_write then begin
    let fresh = not (Sys.file_exists (log_file t)) in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (log_file t)
    in
    if fresh || (Unix.stat (log_file t)).Unix.st_size = 0 then begin
      output_string oc (header_line t.fp);
      flush oc
    end;
    t.log_oc <- Some oc
  end

let open_ ?(readonly = false) ~path ~fingerprint () =
  match
    if Sys.file_exists path then
      if Sys.is_directory path then Ok ()
      else Error (Printf.sprintf "%s exists and is not a directory" path)
    else
      match Unix.mkdir path 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "cannot create %s: %s" path (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok () ->
      (* A temp snapshot left by a killed flush is garbage by definition:
         the rename never happened. *)
      if not readonly then
        (try Sys.remove (Filename.concat path "index.tmp") with Sys_error _ -> ());
      let mode =
        if readonly then Read_only
        else
          match try_lock path with
          | `Locked -> Read_write
          | `Busy | `Error ->
              Obs.Counter.incr c_contention;
              Read_only
      in
      let t =
        {
          dir = path;
          fp = fingerprint;
          mode;
          locked = mode = Read_write;
          table = Hashtbl.create 256;
          log_oc = None;
          dirty = false;
          closed = false;
          hits = 0;
          misses = 0;
          puts = 0;
          superseded = 0;
          invalidated = false;
          recovered = 0;
          write_errors = 0;
          lock = Mutex.create ();
        }
      in
      load t;
      (match open_log t with
      | () -> ()
      | exception (Sys_error _ | Unix.Unix_error _) -> t.log_oc <- None);
      Ok t

let mode t = t.mode
let path t = t.dir
let fingerprint t = t.fp

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~ns key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table (ns, key) with
      | Some v ->
          t.hits <- t.hits + 1;
          Obs.Counter.incr c_hit;
          Some v
      | None ->
          t.misses <- t.misses + 1;
          Obs.Counter.incr c_miss;
          None)

let mem t ~ns key = Option.is_some (find t ~ns key)

(* A failed write (full disk, I/O error) never reaches the caller: it is
   counted and the store degrades to read-only — later puts are dropped,
   flushes skipped — while finds keep serving the in-memory table and
   [close] still releases the lock. *)
let write_failed t =
  t.write_errors <- t.write_errors + 1;
  Obs.Counter.incr c_write_error;
  t.mode <- Read_only;
  (match t.log_oc with Some oc -> close_out_noerr oc | None -> ());
  t.log_oc <- None

let append_record t ~ns ~key ~value =
  match t.log_oc with
  | None -> ()
  | Some oc -> (
      let buf = Buffer.create (String.length value + String.length key + 32) in
      add_record buf ~ns ~key ~value;
      try
        Buffer.output_buffer oc buf;
        flush oc
      with Sys_error _ -> write_failed t)

let put t ~ns key value =
  with_lock t (fun () ->
      if t.closed || t.mode = Read_only then Obs.Counter.incr c_drop
      else
        match Hashtbl.find_opt t.table (ns, key) with
        | Some v when String.equal v value -> Obs.Counter.incr c_put_skip
        | prior ->
            if prior <> None then t.superseded <- t.superseded + 1;
            Hashtbl.replace t.table (ns, key) value;
            append_record t ~ns ~key ~value;
            t.dirty <- true;
            t.puts <- t.puts + 1;
            Obs.Counter.incr c_put)

let iter t ~ns f =
  let snapshot =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun (n, k) v acc -> if String.equal n ns then (k, v) :: acc else acc)
          t.table [])
  in
  List.iter (fun (k, v) -> f k v) snapshot

let entries t = with_lock t (fun () -> Hashtbl.length t.table)

(* Atomic snapshot: write everything to index.tmp, fsync, rename over
   index.bin, then reset the log. A crash before the rename leaves the
   old snapshot + full log; after it, replaying the old log records is
   an idempotent no-op. *)
let flush_locked t =
  if t.mode = Read_write && t.dirty && not t.closed then begin
    let buf = Buffer.create 65536 in
    Buffer.add_string buf (header_line t.fp);
    Hashtbl.iter
      (fun (ns, key) value -> add_record buf ~ns ~key ~value)
      t.table;
    let written =
      match
        Unix.openfile (tmp_file t)
          [ Unix.O_CREAT; Unix.O_TRUNC; Unix.O_WRONLY ]
          0o644
      with
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let s = Buffer.contents buf in
              try
                Unix.write_substring fd s 0 (String.length s) = String.length s
                && (Unix.fsync fd; true)
              with Unix.Unix_error _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    let renamed =
      written
      &&
      match Unix.rename (tmp_file t) (index_file t) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    if renamed then begin
      (match t.log_oc with Some oc -> close_out_noerr oc | None -> ());
      t.log_oc <- None;
      (try
         let oc = open_out_bin (log_file t) in
         output_string oc (header_line t.fp);
         flush oc;
         t.log_oc <- Some oc
       with Sys_error _ -> write_failed t);
      t.dirty <- false;
      Obs.Counter.incr c_flush
    end
    else begin
      (try Sys.remove (tmp_file t) with Sys_error _ -> ());
      write_failed t
    end
  end

let flush t = with_lock t (fun () -> flush_locked t)

let gc t =
  with_lock t (fun () ->
      let dead = t.superseded in
      t.superseded <- 0;
      t.dirty <- t.dirty || (dead > 0 && t.mode = Read_write);
      flush_locked t;
      Obs.Counter.add c_evict dead;
      dead)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.superseded <- 0;
      if t.mode = Read_write && not t.closed then begin
        t.dirty <- true;
        flush_locked t
      end)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        flush_locked t;
        (match t.log_oc with Some oc -> close_out_noerr oc | None -> ());
        t.log_oc <- None;
        t.closed <- true;
        if t.locked then
          try Sys.remove (lock_file t.dir) with Sys_error _ -> ()
      end)

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let stats t =
  with_lock t (fun () ->
      {
        path = t.dir;
        mode = t.mode;
        entries = Hashtbl.length t.table;
        hits = t.hits;
        misses = t.misses;
        puts = t.puts;
        invalidated = t.invalidated;
        recovered = t.recovered;
        write_errors = t.write_errors;
        log_bytes = file_size (log_file t);
        index_bytes = file_size (index_file t);
      })
