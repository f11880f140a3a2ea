(** The wire protocol of [optpower serve] — JSON-lines request/reply
    framing (DESIGN.md §14).

    One request per line, one reply line per request, in order:

    {v
    -> {"id":1,"method":"optimum","params":{"arch":"RCA","tech":"LL"}}
    <- {"id":1,"ok":{"method":"optimum","arch":"RCA","tech":"LL", ...}}
    -> {"id":2,"method":"nope"}
    <- {"id":2,"error":{"code":"unknown-method","message":"..."}}
    v}

    Every malformed frame yields a {e structured error reply} with a
    stable [code]; the session is never crashed or wedged by input.

    Validation has two layers. {!parse_call} holds the {e validity}
    rules — everything whose failure would crash or mislead the engine —
    and is shared by the wire and the one-shot CLI, so argument checking
    exists once. {!parse_frame} adds framing, JSON parsing and the
    service {e limits} that only protect a resident server. The parsed
    {!call} carries fully validated, defaulted parameters, so everything
    past this layer is total. *)

type error_code =
  | Parse  (** Frame is not valid JSON, or not a request object. *)
  | Frame  (** Frame exceeds {!max_frame_bytes} or was truncated by EOF. *)
  | Unknown_method
  | Params  (** Unknown architecture/technology/rule, non-finite or
                out-of-range numeric parameter, wrong type. *)
  | Shutdown  (** Session is draining; request was not accepted. *)
  | Internal

val code_string : error_code -> string
(** Stable wire names: ["parse-error"], ["frame-error"],
    ["unknown-method"], ["invalid-params"], ["shutting-down"],
    ["internal-error"]. *)

(** A validated request body. Parameter defaults are baked in here so that
    two frames differing only in explicit-vs-defaulted parameters are the
    {e same} call (and hit the same session cache entry). *)
type call =
  | Optimum of { tech : Device.Technology.t; arch : string }
  | Sweep of {
      tech : Device.Technology.t;
      arch : string;
      samples : int;  (** Default 25, the CLI sweep's default. *)
      vdd_lo : float;  (** Default 0.25 V. *)
      vdd_hi : float;  (** Default 1.2 V. *)
    }
  | Rank of { tech : Device.Technology.t; archs : string list }
      (** [archs] defaults to the full Table 1 catalog. *)
  | Lint of { only : string list option }
  | Certify of { flavors : Device.Technology.t list }
      (** Defaults to all three flavors. *)
  | Explore of {
      axes : Power_core.Explorer.axes;
          (** From ["bits"] (even, >= 4; default 8), ["families"] (a name
              or array of names among ["booth"], ["dadda"], ["wallace"];
              default all three), ["radices"] (subset of {2, 4, 8};
              default all three), ["stages"] (>= 1; default [1; 2; 3]),
              ["copies"] (>= 1; default [1; 2; 4]), ["signed"] (default
              false), ["fmults"] (all > 0; default [0.5; 1; 2; 4]) and
              ["tech"] (a single flavor or ["all"], the default). The
              axes must enumerate at least one candidate. *)
      prune : bool;  (** Default true; [false] forces exhaustive solves. *)
      max_latency : float option;
          (** Optional effective-logical-depth cap; must be finite > 0
              (NaN and negatives are [invalid-params]). *)
      max_area : float option;  (** Optional cell-count cap; same rules. *)
    }
      (** Design-space exploration ({!Power_core.Explorer.explore}). *)
  | Store_stats
      (** Warm-store statistics of the serving process (entries, hit and
          put counts, mode, fingerprint); no parameters. *)

type request = { id : Json.t; call : call }
(** [id] is echoed verbatim in the reply ([Null] when absent). *)

val max_frame_bytes : int
(** Longest accepted request frame (bytes, newline excluded): 65536. *)

val max_sweep_samples : int
(** Upper bound on [sweep.samples] (16384) — a service limit. *)

val max_explore_candidates : int
(** Upper bound on the candidate count an [explore] request's axes may
    enumerate (4096) — a service limit, like the caps on [bits] (16),
    [stages] entries (16) and [copies] entries (64). *)

val parse_call : string -> Json.t -> (call, error_code * string) result
(** [parse_call meth params] validates one request body against the
    validity rules and bakes in the defaults: known arch, tech, rule and
    family names; finite numbers; even [bits >= 4]; radices in
    {2, 4, 8}; [stages >= 1]; [copies >= 1]; [fmults > 0]; positive caps;
    a non-empty candidate space. Service limits are {e not} applied.
    Errors are [Unknown_method] or [Params]. *)

val parse_frame :
  string -> (request, Json.t * error_code * string) result
(** Parse and validate one frame: framing and JSON, then {!parse_call},
    then the service limits ({!max_frame_bytes}, {!max_sweep_samples},
    {!max_explore_candidates} and the explore axis caps). The error
    carries the request id when one could be recovered from the
    malformed frame (so the client can still correlate), [Null]
    otherwise. *)

val method_name : call -> string

val ok_frame : id:Json.t -> Json.t -> string
(** [{"id":<id>,"ok":<payload>}] — no trailing newline. *)

val error_frame : id:Json.t -> error_code -> string -> string
(** [{"id":<id>,"error":{"code":...,"message":...}}] — no newline. *)
