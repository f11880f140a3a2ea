(** Driving and reading integer values on net buses (LSB-first). *)

val to_values : width:int -> int -> Netlist.Logic.value array
(** Little-endian binary expansion. @raise Invalid_argument if the value
    does not fit in [width] bits or is negative. *)

val of_values : Netlist.Logic.value array -> int option
(** [None] if any bit is X. *)

val drive : Compiled.t -> Netlist.Circuit.net array -> int -> unit
(** Apply an integer to a primary-input bus (no settle). *)

val read : Compiled.t -> Netlist.Circuit.net array -> int option
(** Read an integer off any net bus. *)

val read_exn : Compiled.t -> Netlist.Circuit.net array -> int
(** @raise Failure when a bit is X. *)
