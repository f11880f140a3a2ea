(** Value Change Dump (IEEE 1364 §18) writer.

    Records selected nets of a running {!Compiled} kernel and emits a
    standard VCD file viewable in GTKWave & co. Sampling is explicit: call
    {!sample} whenever the simulation reaches a point of interest
    (typically after each settle); only changed values are dumped. *)

type t

val create :
  ?timescale:string ->
  Compiled.t ->
  nets:(Netlist.Circuit.net * string) list ->
  t
(** Start a recording of the given nets (with display names).
    [timescale] defaults to ["1ns"]. Duplicate names are disambiguated. *)

val sample : t -> time:float -> unit
(** Record the current simulator values at [time] (in timescale units;
    must not decrease between calls). *)

val contents : t -> string
(** The complete VCD document (header + change records so far). *)

val write_file : path:string -> t -> unit
