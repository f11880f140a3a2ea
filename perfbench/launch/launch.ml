(* Runs PROGRAM with ARGS (inheriting stdin, stdout and stderr), then
   writes one line to STATS: exit status (or minus the signal number),
   wall seconds from fork to exit, CPU seconds and peak RSS in KiB.

   Usage: launch.exe STATS PROGRAM [ARGS...] *)

external launch : string array -> int * float * float * int
  = "perfbench_launch"

let () =
  let stats = Sys.argv.(1) in
  let argv = Array.sub Sys.argv 2 (Array.length Sys.argv - 2) in
  let code, wall, cpu, rss_kib = launch argv in
  let oc = open_out stats in
  Printf.fprintf oc "%d %.9f %.9f %d\n" code wall cpu rss_kib;
  close_out oc
