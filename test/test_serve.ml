(* The serve layer: deterministic client-load harness over socketpairs,
   wire-protocol robustness (seeded round-trips plus adversarial frames),
   backpressure/batching/drain semantics, and the session-owned cache.

   The central claim under test: a reply produced by the batched resident
   session is bitwise-identical to the one-shot [Serve.Engine.run_call]
   for the same validated call, whatever the pool size, the number of
   concurrent clients or the batch composition. [Serve.Json.equal]
   compares numbers by their float64 bits, so "equal" below means
   bit-for-bit. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Engine = Serve.Engine
module Session = Serve.Session
module Server = Serve.Server
module Client = Serve.Client

let labels =
  List.map
    (fun (r : Power_core.Paper_data.table1_row) -> r.label)
    Power_core.Paper_data.table1

let frame_of ~id meth params =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("method", Json.Str meth);
      ("params", Json.Obj params);
    ]

let call_of meth params =
  match Protocol.parse_frame (Json.to_string (frame_of ~id:0 meth params)) with
  | Ok (r : Protocol.request) -> r.call
  | Error (_, _, msg) -> Alcotest.failf "bad scripted call %s: %s" meth msg

let with_session ?autostart config f =
  let session = Session.create ?autostart ~config () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) (fun () ->
      f session)

(* One wired client: a socketpair with a real [Server.handle_connection]
   thread on the far end, so requests traverse the full framing path. *)
let with_wire session f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create (fun () -> Server.handle_connection session a) ()
  in
  let client = Client.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Thread.join handler)
    (fun () -> f client)

let rec wait_for ?(tries = 500) msg pred =
  if pred () then ()
  else if tries = 0 then Alcotest.failf "timed out waiting for %s" msg
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) msg pred
  end

(* The client script: every request method, including a defaulted and an
   explicit-parameter variant, a >1-chunk rank (17 archs vs the chunk
   size of 16) and a small explore. *)
let script =
  [
    ("optimum", [ ("arch", Json.Str "RCA") ]);
    ("optimum", [ ("arch", Json.Str "Wallace"); ("tech", Json.Str "HS") ]);
    ("sweep", [ ("arch", Json.Str "RCA"); ("samples", Json.Num 7.0) ]);
    ( "rank",
      [
        ( "archs",
          Json.Arr
            (List.map
               (fun l -> Json.Str l)
               (labels @ [ "RCA"; "Wallace"; "Sequential"; "RCA" ])) );
      ] );
    ("rank", []);
    ("lint", [ ("only", Json.Arr [ Json.Str "model.finite" ]) ]);
    ("certify", [ ("tech", Json.Str "LL") ]);
    ( "explore",
      [
        ("bits", Json.Num 4.0);
        ("families", Json.Str "wallace");
        ("fmults", Json.Arr [ Json.Num 1.0 ]);
      ] );
    ("store_stats", []);
  ]

let check_json msg expected actual =
  if not (Json.equal expected actual) then
    Alcotest.failf "%s: reply differs from one-shot\nwant %s\ngot  %s" msg
      (Json.to_string expected) (Json.to_string actual)

(* Client-load equivalence: N scripted clients against a session at the
   given pool size; every reply must be bitwise-equal to the one-shot
   engine result computed outside any session. *)
let test_wire_equivalence jobs () =
  let refs = List.map (fun (m, p) -> Engine.run_call (call_of m p)) script in
  let config =
    { Session.default_config with jobs = Some jobs; cache = false }
  in
  with_session config @@ fun session ->
  let nclients = 4 in
  let results = Array.make nclients [] in
  let run_client i () =
    with_wire session (fun c ->
        results.(i) <-
          List.map
            (fun (m, p) ->
              match Client.rpc c ~meth:m p with
              | Ok payload -> payload
              | Error (code, msg) ->
                Alcotest.failf "client %d %s: %s: %s" i m code msg)
            script)
  in
  let threads =
    List.init nclients (fun i -> Thread.create (run_client i) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i replies ->
      List.iteri
        (fun k (expected, actual) ->
          check_json
            (Printf.sprintf "client %d call %d (-j %d)" i k jobs)
            expected actual)
        (List.combine refs replies))
    results

(* Per-client FIFO: pipeline many frames before reading any reply; the
   reply ids must come back in submission order. *)
let test_fifo_pipelined () =
  let config =
    { Session.default_config with jobs = Some 2; cache = false }
  in
  with_session config @@ fun session ->
  with_wire session @@ fun c ->
  let n = 10 in
  List.iteri
    (fun i label ->
      Client.send_line c
        (Json.to_string
           (frame_of ~id:i "optimum" [ ("arch", Json.Str label) ])))
    (List.filteri (fun i _ -> i < n) (labels @ labels));
  for i = 0 to n - 1 do
    match Client.recv_line c with
    | None -> Alcotest.failf "EOF before reply %d" i
    | Some line -> (
      match Json.parse line with
      | Error msg -> Alcotest.failf "reply %d unparseable: %s" i msg
      | Ok reply ->
        (match Json.member "id" reply with
        | Some (Json.Num id) ->
          Alcotest.(check int) "FIFO reply order" i (int_of_float id)
        | _ -> Alcotest.failf "reply %d has no numeric id" i);
        if Json.member "ok" reply = None then
          Alcotest.failf "reply %d is not ok: %s" i line)
  done

(* Cross-request batching: hold the dispatcher, enqueue several distinct
   requests, release — they run as one coalesced batch, and each reply is
   still bitwise-equal to its one-shot result. *)
let test_batch_coalescing () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let calls =
    [
      call_of "optimum" [ ("arch", Json.Str "RCA") ];
      call_of "optimum" [ ("arch", Json.Str "Wallace") ];
      call_of "rank" [] ;
      call_of "sweep" [ ("arch", Json.Str "Sequential"); ("samples", Json.Num 5.0) ];
    ]
  in
  let refs = List.map (fun c -> Engine.run_call c) calls in
  Obs.reset ();
  let config =
    {
      Session.jobs = Some 2;
      queue_capacity = 16;
      max_batch = 8;
      cache = false;
      store = None;
    }
  in
  with_session ~autostart:false config @@ fun session ->
  let calls_arr = Array.of_list calls in
  let results = Array.make (Array.length calls_arr) None in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i call ->
           Thread.create
             (fun () -> results.(i) <- Some (Session.submit session call))
             ())
         calls_arr)
  in
  wait_for "all requests queued" (fun () ->
      Session.pending session = Array.length calls_arr);
  Session.start session;
  List.iter Thread.join threads;
  List.iteri
    (fun i expected ->
      match results.(i) with
      | None -> Alcotest.failf "request %d never answered" i
      | Some actual ->
        check_json (Printf.sprintf "batched request %d" i) expected actual)
    refs;
  Alcotest.(check int)
    "one coalesced batch" 1
    (Obs.counter_value "serve.batches");
  Alcotest.(check int)
    "all requests rode the batch" (Array.length calls_arr)
    (Obs.counter_value "serve.batched")

(* Backpressure soak: more submitters than queue slots block rather than
   drop; a clean drain leaves no queued request, no leaked pool task, and
   requests == replies. *)
let test_backpressure_and_drain () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let config =
    { Session.jobs = Some 2; queue_capacity = 2; max_batch = 2; cache = false;
      store = None }
  in
  let session = Session.create ~autostart:false ~config () in
  let n = 6 in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let call =
              call_of "optimum" [ ("arch", Json.Str (List.nth labels i)) ]
            in
            results.(i) <- Some (Session.submit session call))
          ())
  in
  wait_for "queue at capacity" (fun () -> Session.pending session = 2);
  (* Give the surplus submitters every chance to (wrongly) squeeze in. *)
  Thread.delay 0.05;
  Alcotest.(check int)
    "queue holds exactly its capacity" 2 (Session.pending session);
  Alcotest.(check int)
    "only queued requests counted accepted" 2
    (Obs.counter_value "serve.requests");
  Session.start session;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r -> if r = None then Alcotest.failf "request %d dropped" i)
    results;
  Session.shutdown session;
  Alcotest.(check int) "queue drained" 0 (Session.pending session);
  Alcotest.(check int)
    "no leaked pool tasks" 0
    (Parallel.Pool.pending (Session.pool session));
  Alcotest.(check int)
    "every accepted request answered"
    (Obs.counter_value "serve.requests")
    (Obs.counter_value "serve.replies");
  Alcotest.(check int) "all six served" 6 (Obs.counter_value "serve.replies");
  (* Draining is terminal: new work is refused with the typed error. *)
  Alcotest.check_raises "submit after shutdown" Session.Shutting_down
    (fun () ->
      ignore (Session.submit session (call_of "optimum" [ ("arch", Json.Str "RCA") ])))

(* Regression: the session-owned result cache survives across requests — a
   second identical call is a memo hit and re-runs no solver work, even
   when the two frames differ in explicit-vs-defaulted parameters. *)
let test_session_cache_across_requests () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let config = { Session.default_config with jobs = Some 2 } in
  with_session config @@ fun session ->
  let call = call_of "optimum" [ ("arch", Json.Str "RCA") ] in
  let r1 = Session.submit session call in
  let solves = Obs.counter_value "opt.solves" in
  let hits = Obs.counter_value "memo.serve.results.hit" in
  let r2 = Session.submit session call in
  check_json "cached reply" r1 r2;
  Alcotest.(check int)
    "second identical request is a memo hit" (hits + 1)
    (Obs.counter_value "memo.serve.results.hit");
  Alcotest.(check int)
    "zero additional solves" solves
    (Obs.counter_value "opt.solves");
  (* Defaults are baked into the validated call: an explicit tech=LL frame
     is the same cache key as the defaulted one. *)
  let explicit =
    call_of "optimum" [ ("arch", Json.Str "RCA"); ("tech", Json.Str "LL") ]
  in
  let r3 = Session.submit session explicit in
  check_json "defaulted = explicit cache key" r1 r3;
  Alcotest.(check int)
    "explicit-parameter frame also hits" (hits + 2)
    (Obs.counter_value "memo.serve.results.hit");
  Alcotest.(check int)
    "still zero additional solves" solves
    (Obs.counter_value "opt.solves");
  let stats = Session.cache_stats session in
  Alcotest.(check int) "one cached entry" 1 stats.entries

(* Explore parameter plumbing: families and constraint caps parse into
   the validated call; bad values are invalid-params before any work. *)
let test_explore_params () =
  (match call_of "explore" [ ("families", Json.Str "dadda") ] with
  | Protocol.Explore e ->
    Alcotest.(check bool) "single family string" true
      (e.axes.families = [ Power_core.Explorer.Dadda ]);
    Alcotest.(check bool) "caps default to none" true
      (e.max_latency = None && e.max_area = None)
  | _ -> Alcotest.fail "not an explore call");
  (match
     call_of "explore"
       [
         ("families", Json.Arr [ Json.Str "booth"; Json.Str "wallace" ]);
         ("max_latency", Json.Num 12.5);
         ("max_area", Json.Num 4000.0);
       ]
   with
  | Protocol.Explore e ->
    Alcotest.(check bool) "family list" true
      (e.axes.families
      = [ Power_core.Explorer.Booth; Power_core.Explorer.Wallace ]);
    Alcotest.(check bool) "caps carried" true
      (e.max_latency = Some 12.5 && e.max_area = Some 4000.0)
  | _ -> Alcotest.fail "not an explore call");
  let invalid params =
    let line = Json.to_string (frame_of ~id:0 "explore" params) in
    match Protocol.parse_frame line with
    | Error (_, Protocol.Params, _) -> true
    | Ok _ | Error _ -> false
  in
  (* Validity rules live in [parse_call], shared with the CLI; service
     limits only in [parse_frame]. *)
  let valid_call params =
    match Protocol.parse_call "explore" (Json.Obj params) with
    | Ok (Protocol.Explore _) -> true
    | Ok _ | Error _ -> false
  in
  let invalid_call params =
    match Protocol.parse_call "explore" (Json.Obj params) with
    | Error (Protocol.Params, _) -> true
    | Ok _ | Error _ -> false
  in
  Alcotest.(check bool) "18 bits is a valid call" true
    (valid_call [ ("bits", Json.Num 18.0) ]);
  Alcotest.(check bool) "18 bits exceeds the service limit" true
    (invalid [ ("bits", Json.Num 18.0) ]);
  Alcotest.(check bool) "odd bits" true
    (invalid_call [ ("bits", Json.Num 5.0) ]);
  Alcotest.(check bool) "radix 3, booth only" true
    (invalid_call
       [
         ("families", Json.Str "booth");
         ("radices", Json.Arr [ Json.Num 3.0 ]);
       ]);
  Alcotest.(check bool) "zero stages" true
    (invalid_call [ ("stages", Json.Arr [ Json.Num 0.0 ]) ]);
  Alcotest.(check bool) "unknown family" true
    (invalid [ ("families", Json.Str "csa") ]);
  Alcotest.(check bool) "empty family list" true
    (invalid [ ("families", Json.Arr []) ]);
  Alcotest.(check bool) "negative latency cap" true
    (invalid [ ("max_latency", Json.Num (-1.0)) ]);
  Alcotest.(check bool) "zero area cap" true
    (invalid [ ("max_area", Json.Num 0.0) ]);
  (* NaN is unrepresentable in JSON: whether the reader rejects the
     literal or the cap guard rejects the value, the frame must error. *)
  Alcotest.(check bool) "NaN latency cap" true
    (match
       Protocol.parse_frame
         {|{"id":0,"method":"explore","params":{"max_latency":nan}}|}
     with
    | Error _ -> true
    | Ok _ -> false)

(* The store_stats method: [{"enabled": false}] on a cold session; live
   (never memoised) counters on a store-backed one. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_store_stats () =
  with_session { Session.default_config with jobs = Some 1 } (fun session ->
      let reply = Session.submit session (call_of "store_stats" []) in
      match Json.member "enabled" reply with
      | Some (Json.Bool false) -> ()
      | _ ->
        Alcotest.failf "cold session: expected enabled:false, got %s"
          (Json.to_string reply));
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-test-serve-store.%d" (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let store = Power_core.Warm.open_store ~path:dir () in
  if store = None then Alcotest.fail "cannot open the test store";
  (* The session owns (and closes) the store handle. *)
  with_session { Session.default_config with jobs = Some 1; store }
  @@ fun session ->
  let stats () = Session.submit session (call_of "store_stats" []) in
  let num field reply =
    match Json.member field reply with
    | Some (Json.Num v) -> int_of_float v
    | _ ->
      Alcotest.failf "store_stats reply lacks %S: %s" field
        (Json.to_string reply)
  in
  let before = stats () in
  (match Json.member "enabled" before with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "store-backed session must report enabled:true");
  ignore
    (Session.submit session (call_of "optimum" [ ("arch", Json.Str "RCA") ]));
  let after = stats () in
  Alcotest.(check bool) "the solve wrote through to the store" true
    (num "puts" after > num "puts" before);
  (* Live counters: the session memo is on, so if store_stats were
     cached the second reply would be a frozen copy of the first. *)
  Alcotest.(check bool) "stats are never memoised" true
    (num "entries" after >= num "entries" before
    && not (Json.equal before after))

(* A store-backed session answers exactly like the one-shot path over the
   same store, in both directions (session miss then one-shot hit, and
   one-shot miss then session hit), and like a cold solve. *)
let test_store_backed_optimum () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-test-serve-warm.%d" (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let rca = call_of "optimum" [ ("arch", Json.Str "RCA") ] in
  let wallace =
    call_of "optimum" [ ("arch", Json.Str "Wallace"); ("tech", Json.Str "HS") ]
  in
  let cold_rca = Engine.run_call rca in
  let cold_wallace = Engine.run_call wallace in
  let store = Power_core.Warm.open_store ~path:dir () in
  let st =
    match store with
    | Some st -> st
    | None -> Alcotest.fail "cannot open the test store"
  in
  with_session
    { Session.default_config with jobs = Some 2; cache = false; store }
  @@ fun session ->
  let served_rca = Session.submit session rca in
  check_json "session (miss) = cold" cold_rca served_rca;
  check_json "one-shot (hit) = session" served_rca
    (Engine.run_call ~store:st rca);
  let oneshot_wallace = Engine.run_call ~store:st wallace in
  check_json "one-shot (miss) = cold" cold_wallace oneshot_wallace;
  check_json "session (hit) = one-shot" oneshot_wallace
    (Session.submit session wallace)

(* Wire JSON round-trips: 200 seeded random documents must survive
   print -> parse with every float64 bit intact. *)
let gen_json st =
  let gen_string () =
    let n = Random.State.int st 12 in
    String.init n (fun _ ->
        match Random.State.int st 6 with
        | 0 -> Char.chr (Random.State.int st 32) (* control chars *)
        | 1 -> '"'
        | 2 -> '\\'
        | 3 -> Char.chr (128 + Random.State.int st 128) (* high bytes *)
        | _ -> Char.chr (32 + Random.State.int st 95))
  in
  let gen_float () =
    match Random.State.int st 4 with
    | 0 -> float_of_int (Random.State.int st 1_000_000 - 500_000)
    | 1 -> Random.State.float st 2.0 -. 1.0
    | 2 -> ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 600 - 300)
    | _ -> Float.of_int (Random.State.int st 1000) /. 7.0
  in
  let rec gen depth =
    let cases = if depth >= 3 then 4 else 6 in
    match Random.State.int st cases with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool st)
    | 2 -> Json.Num (gen_float ())
    | 3 -> Json.Str (gen_string ())
    | 4 ->
      Json.Arr (List.init (Random.State.int st 5) (fun _ -> gen (depth + 1)))
    | _ ->
      Json.Obj
        (List.init (Random.State.int st 5) (fun _ ->
             (gen_string (), gen (depth + 1))))
  in
  gen 0

let test_json_roundtrip () =
  let st = Random.State.make [| 0xC0FFEE |] in
  for i = 1 to 200 do
    let doc = gen_json st in
    let s = Json.to_string doc in
    match Json.parse s with
    | Error msg -> Alcotest.failf "case %d: %S does not re-parse: %s" i s msg
    | Ok doc' ->
      if not (Json.equal doc doc') then
        Alcotest.failf "case %d: round-trip changed %S" i s
  done

(* The printer against the C printer it replaces: one number must print
   exactly as %.17g does, or as %.0f for an integer below 2^53. The
   formatters are applied once to their format, so each check pays only
   for the conversion. *)
let c_g17 = Printf.sprintf "%.17g"
let c_int = Printf.sprintf "%.0f"

let check_number v =
  let want =
    if Float.is_integer v && Float.abs v < 0x1p53 then c_int v else c_g17 v
  in
  let got = Json.to_string (Json.Num v) in
  if not (String.equal got want) then
    Alcotest.failf "%h prints %s, C gives %s" v got want

let check_both v =
  check_number v;
  check_number (-.v)

let check_neighbours v =
  check_both v;
  check_both (Float.pred v);
  check_both (Float.succ v)

let test_json_numbers () =
  (* 2 M random bit patterns, checked on two domains with a seed each. Most
     keep an exponent within 1e-24 .. 1e18, both sides of the exact path's
     range; one in 64 is drawn from every exponent. *)
  let random_patterns seed () =
    let st = Random.State.make [| seed |] in
    for i = 1 to 1_000_000 do
      let biased =
        if i land 63 = 0 then Random.State.int st 2047
        else 1023 - 80 + Random.State.int st 140
      in
      let bits =
        Int64.logor
          (Int64.shift_left (Int64.of_int biased) 52)
          (Int64.logand (Random.State.bits64 st) 0x800F_FFFF_FFFF_FFFFL)
      in
      check_number (Int64.float_of_bits bits)
    done
  in
  List.map (fun seed -> Domain.spawn (random_patterns seed)) [ 0x179; 0x17A ]
  |> List.iter Domain.join;
  for p = -30 to 20 do
    check_neighbours (float_of_string (Printf.sprintf "1e%d" p))
  done;
  (* Exact decimal ties at the 17th digit round half to even. *)
  List.iter check_both [ 1e15 +. 0.25; 1e15 +. 0.75; 1e15 +. 0.5 ];
  for i = 0 to 999 do
    check_both (1e14 +. (float_of_int ((2 * i) + 1) /. 8.0));
    check_both (float_of_int i +. 0.5)
  done;
  (* Subnormals, 2^53 and the signed zeros. *)
  List.iter check_neighbours [ 5e-324; Float.min_float; 0x1p-1023; 0x1p53; 0.0 ];
  check_both Float.max_float;
  check_number (-0.0);
  let st = Random.State.make [| 0x5B |] in
  for _ = 1 to 1000 do
    check_both
      (Int64.float_of_bits
         (Int64.logand (Random.State.bits64 st) 0x000F_FFFF_FFFF_FFFFL))
  done;
  (* The exact path covers decimal exponents -22 .. 16, and %g switches to
     exponent form below 1e-4. A value just below a power of ten keeps its
     own exponent (0x1.ad7f29abcaf48p-24 is 9.9999999999999995e-08, not
     1e-07), unless its 17 digits round up to the power: the double
     nearest 1e-14 lies below it. *)
  List.iter check_neighbours
    [ 1e-23; 1e-22; 1e-14; 1e-5; 1e-4; 0.1; 1.0; 1e16; 1e17; 1e18 ];
  List.iter check_neighbours
    [ 0x1.ad7f29abcaf48p-24; 0.99999999999999989; 9.9999999999999991e-11 ];
  match Json.to_string (Json.Num Float.nan) with
  | s -> Alcotest.failf "NaN printed as %s" s
  | exception Invalid_argument _ -> ()

(* The printer keeps no shared state: one 2000-sample sweep reply encoded
   from 8 threads and from 2 domains at once must equal a sequential
   encode byte for byte. *)
let test_json_concurrent_encode () =
  let payload =
    Engine.run_call
      (Protocol.Sweep
         {
           tech = Device.Technology.ll;
           arch = "RCA";
           samples = 2000;
           vdd_lo = 0.25;
           vdd_hi = 1.2;
         })
  in
  let want = Json.to_string payload in
  let encode_all reps =
    List.init reps (fun _ -> String.equal (Json.to_string payload) want)
    |> List.for_all Fun.id
  in
  let results = Array.make 8 false in
  let threads =
    List.init 8 (fun i ->
        Thread.create (fun () -> results.(i) <- encode_all 10) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i ok -> if not ok then Alcotest.failf "thread %d: encode differs" i)
    results;
  let domains = List.init 2 (fun _ -> Domain.spawn (fun () -> encode_all 20)) in
  List.iteri
    (fun i d ->
      if not (Domain.join d) then Alcotest.failf "domain %d: encode differs" i)
    domains

(* The parser is total: random garbage returns Ok or Error, never raises
   and never hangs. *)
let test_json_fuzz_total () =
  let st = Random.State.make [| 0xBADF00D |] in
  for i = 1 to 200 do
    let n = Random.State.int st 64 in
    let s =
      String.init n (fun _ ->
          (* Bias toward structural bytes so nesting actually happens. *)
          match Random.State.int st 4 with
          | 0 -> [| '{'; '}'; '['; ']'; '"'; ','; ':' |].(Random.State.int st 7)
          | 1 -> [| 'n'; 't'; 'f'; 'e'; '-'; '+'; '.' |].(Random.State.int st 7)
          | 2 -> Char.chr (Random.State.int st 256)
          | _ -> [| '0'; '1'; '9'; ' '; '\\' |].(Random.State.int st 5))
    in
    match Json.parse s with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "case %d: parse %S raised %s" i s (Printexc.to_string e)
  done

(* Adversarial frames over the real wire: each must produce one structured
   error reply, after which the same connection still serves a valid
   request — never a crash, never a wedge. *)
let adversary_config = { Session.default_config with jobs = Some 1 }

let expect_error ~what c line expected_code =
  Client.send_line c line;
  match Client.recv_line c with
  | None -> Alcotest.failf "%s: connection died instead of replying" what
  | Some reply -> (
    match Json.parse reply with
    | Error msg -> Alcotest.failf "%s: unparseable reply %S: %s" what reply msg
    | Ok json -> (
      match Json.member "error" json with
      | Some err ->
        (match Json.member "code" err with
        | Some (Json.Str code) ->
          Alcotest.(check string) (what ^ ": error code") expected_code code
        | _ -> Alcotest.failf "%s: error without code" what);
        json
      | None -> Alcotest.failf "%s: expected error reply, got %S" what reply))

let expect_alive c =
  match Client.rpc c ~meth:"optimum" [ ("arch", Json.Str "RCA") ] with
  | Ok _ -> ()
  | Error (code, msg) ->
    Alcotest.failf "connection wedged after bad frame: %s: %s" code msg

let test_adversarial_frames () =
  with_session adversary_config @@ fun session ->
  with_wire session @@ fun c ->
  (* Not JSON at all. *)
  ignore (expect_error ~what:"garbage" c "hello there" "parse-error");
  expect_alive c;
  (* A frame that is valid JSON but not a request object. *)
  ignore (expect_error ~what:"non-object" c "[1,2,3]" "parse-error");
  (* NaN is not in the JSON grammar. *)
  ignore
    (expect_error ~what:"NaN payload" c
       {|{"id":1,"method":"sweep","params":{"arch":"RCA","vdd_lo":NaN}}|}
       "parse-error");
  (* An overflow literal parses to infinity and must be rejected by the
     finiteness validation, with the id recovered for correlation. *)
  let reply =
    expect_error ~what:"overflow literal" c
      {|{"id":77,"method":"sweep","params":{"arch":"RCA","vdd_lo":1e999}}|}
      "invalid-params"
  in
  (match Json.member "id" reply with
  | Some (Json.Num id) ->
    Alcotest.(check int) "recovered id" 77 (int_of_float id)
  | _ -> Alcotest.fail "invalid-params reply lost the request id");
  expect_alive c;
  (* Numbers outside the RFC 8259 grammar: a leading zero before a digit,
     or a fraction or exponent without digits. *)
  List.iter
    (fun num ->
      ignore
        (expect_error ~what:("number " ^ num) c
           (Printf.sprintf
              {|{"id":4,"method":"sweep","params":{"arch":"RCA","vdd_lo":%s}}|}
              num)
           "parse-error"))
    [ "01"; "-01"; "00"; "1."; "1.e3"; "-.5"; "1e"; "1e+" ];
  expect_alive c;
  List.iter
    (fun num ->
      match Json.parse num with
      | Ok (Json.Num _) -> ()
      | _ -> Alcotest.failf "valid number %s rejected" num)
    [ "0"; "-0"; "0.5"; "-0.0e-0"; "10"; "1e3"; "1E+3"; "2.5e-07" ];
  (* Unknown method. *)
  ignore
    (expect_error ~what:"unknown method" c
       {|{"id":2,"method":"frobnicate","params":{}}|}
       "unknown-method");
  (* Unknown architecture and rule ids are invalid-params. *)
  ignore
    (expect_error ~what:"unknown arch" c
       {|{"id":3,"method":"optimum","params":{"arch":"CLA"}}|}
       "invalid-params");
  (* Stack-smashing nesting depth. *)
  ignore
    (expect_error ~what:"deep nesting" c
       (String.make 1000 '[')
       "parse-error");
  (* Oversized frame: discarded to its newline, answered, stream intact. *)
  ignore
    (expect_error ~what:"oversized frame" c
       (String.make (Protocol.max_frame_bytes + 1000) 'x')
       "frame-error");
  expect_alive c;
  (* Empty lines are skipped, not answered: the next reply must belong to
     the valid request pipelined right behind one. *)
  Client.send_line c "";
  Client.send_line c
    (Json.to_string (frame_of ~id:123 "optimum" [ ("arch", Json.Str "RCA") ]));
  (match Client.recv_line c with
  | Some line -> (
    match Json.parse line with
    | Ok reply -> (
      match Json.member "id" reply with
      | Some (Json.Num id) ->
        Alcotest.(check int) "empty line skipped" 123 (int_of_float id)
      | _ -> Alcotest.fail "reply without id")
    | Error msg -> Alcotest.failf "unparseable reply: %s" msg)
  | None -> Alcotest.fail "EOF after empty line")

(* EOF in the middle of a frame: one structured frame-error, then close. *)
let test_truncated_frame () =
  with_session adversary_config @@ fun session ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create (fun () -> Server.handle_connection session a) ()
  in
  let partial = {|{"id":9,"method":"optimum","params":{"arch|} in
  ignore (Unix.write_substring b partial 0 (String.length partial));
  Unix.shutdown b Unix.SHUTDOWN_SEND;
  let c = Client.of_fd b in
  (match Client.recv_line c with
  | None -> Alcotest.fail "no reply for truncated frame"
  | Some line -> (
    match Json.parse line with
    | Ok reply -> (
      match Json.member "error" reply with
      | Some err ->
        (match Json.member "code" err with
        | Some (Json.Str code) ->
          Alcotest.(check string) "truncated frame code" "frame-error" code
        | _ -> Alcotest.fail "error without code")
      | None -> Alcotest.failf "expected error, got %S" line)
    | Error msg -> Alcotest.failf "unparseable reply: %s" msg));
  Alcotest.(check bool) "connection closed after EOF" true
    (Client.recv_line c = None);
  Thread.join handler;
  Client.close c

(* Clients that hang up before reading their reply: the server's write
   hits a closed peer, which must cost an EPIPE on that connection, not a
   SIGPIPE that kills the process. A fresh connection is still served. *)
let test_hangup_mid_reply () =
  with_session adversary_config @@ fun session ->
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-hangup-%d.sock" (Unix.getpid ()))
  in
  let l = Server.listen_unix session ~path in
  Fun.protect
    ~finally:(fun () ->
      Server.stop l;
      Server.wait l)
    (fun () ->
      for id = 1 to 5 do
        let c = Client.connect path in
        Client.send_line c (Json.to_string (frame_of ~id "lint" []));
        Client.close c
      done;
      let c = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> expect_alive c))

(* Finished connections are reaped: after 1000 connect/frame/close cycles
   the listener counts no live handler, and stop + wait return. *)
let test_connection_reaping () =
  with_session adversary_config @@ fun session ->
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-reap-%d.sock" (Unix.getpid ()))
  in
  let l = Server.listen_unix session ~path in
  for id = 1 to 1000 do
    let c = Client.connect path in
    Client.send_line c
      (Json.to_string (frame_of ~id "optimum" [ ("arch", Json.Str "RCA") ]));
    if Client.recv_line c = None then Alcotest.failf "cycle %d: no reply" id;
    Client.close c
  done;
  wait_for "every handler to finish" (fun () ->
      Server.live_connections l = 0);
  Server.stop l;
  Server.wait l;
  Alcotest.(check int) "no live handler after drain" 0
    (Server.live_connections l)

let () =
  Alcotest.run "serve"
    [
      ( "equivalence",
        [
          Alcotest.test_case "scripted clients, -j 1" `Slow
            (test_wire_equivalence 1);
          Alcotest.test_case "scripted clients, -j 4" `Slow
            (test_wire_equivalence 4);
          Alcotest.test_case "pipelined FIFO replies" `Quick
            test_fifo_pipelined;
          Alcotest.test_case "cross-request batch coalescing" `Quick
            test_batch_coalescing;
          Alcotest.test_case "store-backed optimum" `Quick
            test_store_backed_optimum;
        ] );
      ( "session",
        [
          Alcotest.test_case "backpressure blocks, drain is clean" `Quick
            test_backpressure_and_drain;
          Alcotest.test_case "result cache survives across requests" `Quick
            test_session_cache_across_requests;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "explore families and caps" `Quick
            test_explore_params;
          Alcotest.test_case "store_stats method" `Quick test_store_stats;
          Alcotest.test_case "200 seeded JSON round-trips" `Quick
            test_json_roundtrip;
          Alcotest.test_case "parser is total on fuzz input" `Quick
            test_json_fuzz_total;
          Alcotest.test_case "adversarial frames" `Quick
            test_adversarial_frames;
          Alcotest.test_case "EOF-truncated frame" `Quick
            test_truncated_frame;
          Alcotest.test_case "hang-up mid-reply keeps serving" `Quick
            test_hangup_mid_reply;
          Alcotest.test_case "1000 connections reaped" `Quick
            test_connection_reaping;
          Alcotest.test_case "numbers print as C %.17g" `Quick
            test_json_numbers;
          Alcotest.test_case "concurrent encodes match" `Quick
            test_json_concurrent_encode;
        ] );
    ]
