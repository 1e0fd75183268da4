(** The calls into each layer that workloads make, each inside the span
    that names its layer ("layer.call"), plus the checks on their
    answers. *)

module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Server = Ldb_ldb.Server

let span = Meter.span

(** Compile and link; every build is a [link.build_ms] sample. *)
let build_image (r : Run.t) ~arch sources =
  let t0 = Meter.now_ns () in
  let built = Host.build_image ~arch sources in
  Run.sample r "link.build_ms" (Meter.ms_of_ns (Meter.now_ns () - t0));
  built

let launch built = span "machine.launch" (fun () -> Host.launch_image built)

let load_image (d : Ldb.t) loader_ps =
  span "pscript.load_image" (fun () -> Ldb.load_image d ~loader_ps)

let connect (d : Ldb.t) ~image (p : Host.process) =
  span "ldb.connect" (fun () ->
      Ldb.connect_with_image d ~name:"bench" ~image (Meter.open_channel p))

let break_function d tg name =
  ignore (span "symtab.break" (fun () -> Ldb.break_function d tg name) : int)

let break_line d tg ~file ~line =
  ignore (span "symtab.break" (fun () -> Ldb.break_line ~file d tg ~line) : int list)

let run what (st : (Ldb.state, Ldb.dead) result) : Ldb.state =
  match st with Ok st -> st | Error (`Dead_process m) -> failwith (what ^ ": " ^ m)

let continue_to_stop d tg =
  match run "continue" (span "ldb.continue" (fun () -> Ldb.continue_ d tg)) with
  | Ldb.Stopped _ -> ()
  | st -> raise (Run.Mismatch ("expected a stop, got " ^ Server.state_to_string st))

let continue_to_exit d tg =
  match run "continue" (span "ldb.continue" (fun () -> Ldb.continue_ d tg)) with
  | Ldb.Exited 0 -> ()
  | st -> raise (Run.Mismatch ("expected exit 0, got " ^ Server.state_to_string st))

let top_frame d tg = span "frame.top" (fun () -> Ldb.top_frame d tg)
let backtrace d tg = span "frame.backtrace" (fun () -> Ldb.backtrace d tg)
let print d tg fr name = String.trim (span "ldb.print" (fun () -> Ldb.print_value d tg fr name))

let assign d tg fr name v =
  match span "ldb.assign" (fun () -> Ldb.assign_int d tg fr name v) with
  | Ok () -> ()
  | Error (`Dead_process m) -> failwith ("assign: " ^ m)

(** What [print] shows for a value the oracle computed. *)
let shown name = function
  | Gen.Int n -> string_of_int n
  | Gen.Uninit -> Printf.sprintf "<int %s: uninitialized at this point>" name
