(** Minimal JSON for the wire protocol — zero dependencies, total parser.

    The service speaks JSON-lines: one value per frame, no newline inside a
    frame. This module guarantees two properties the protocol tests rely
    on:

    - {b Round trip.} [parse (to_string v)] succeeds and the result is
      {!equal} to [v] — numbers are printed with enough digits ([%.17g])
      that every float64 bit survives, so a reply built from solver output
      re-reads to the identical bits.
    - {b Totality.} [parse] never raises and never loops: malformed input,
      deeply nested input (depth capped), non-finite number literals
      ([NaN], [Infinity]) and numbers outside the RFC 8259 grammar (["01"],
      ["1."], ["1.e3"], ["-.5"]) all return [Error]. Numeric
      {e overflow} (["1e999"]) parses to [infinity]; rejecting non-finite
      payloads is the protocol layer's job ({!Protocol}), not the
      grammar's. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines, ever — it must stay one
    frame). Integral numbers below 2{^53} in magnitude print as integers
    (["-0"] for [-0.0]); every other number prints byte-identically to C
    [%.17g]. An exact integer formatter covers decimal exponents -22 to 16
    of normal floats, so nearly every wire number skips [printf];
    subnormals and magnitudes below 1e-22 or from 1e17 on fall back to the
    C printer. Safe to call from several threads and domains at once.
    @raise Invalid_argument on a non-finite {!Num} — the protocol never
    emits NaN/Infinity. *)

val equal : t -> t -> bool
(** Structural equality; numbers compare by bit pattern (so [nan = nan]
    and [0.0 <> -0.0] — exactly the round-trip notion). Object fields
    compare in order: the printer preserves field order, so round-tripped
    values match without sorting. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else or when absent. *)
