(** [timetravel]: record a run, then walk it backwards.

    Each session runs a seeded call loop on one target twice: once
    unrecorded to exit, then recorded at a seeded checkpoint spacing,
    stopping at every call of [mark] for the first marks and then running
    to exit.  The trace is pulled across the wire and opened as a replay
    session, and each op is one reverse move — a reverse continue to the
    previous recorded stop, or a reverse step — followed by printing the
    loop variables, which the oracle knows for every stop.  The nub's
    checkpointing, the trace codec, replay re-execution and long runs of
    the simulated CPU are measured here and nowhere else. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Replay = Ldb_ldb.Replay

type target_image = { built : Ldb_link.Link.image * string; image : Ldb.image }

type state = {
  d : Ldb.t;
  prog : Gen.travel_program;
  images : target_image array;  (** one per target *)
  moves : Random.State.t;  (** spacings and reverse steps *)
  mutable next : int;
  mutable retired : Run.snap;
}

let snap (s : state) () =
  Array.fold_left
    (fun acc ti -> Run.add acc (Run.of_image ti.image))
    (Run.add s.retired (Run.of_debugger s.d))
    s.images

let retire (s : state) p tg =
  s.retired <- Run.add s.retired (Run.add (Run.of_proc p) (Run.of_target tg));
  Ldb.remove_target s.d tg

let expect_output (p : Gen.travel_program) (proc : Host.process) =
  Run.expect_eq "program output"
    ~want:(Printf.sprintf "%d\n" (Gen.travel_total p p.Gen.tt_iters))
    (Host.output proc)

(** The unrecorded run: launch, attach and run to exit. *)
let plain_run (s : state) (r : Run.t) (ti : target_image) =
  let p = Common.launch ti.built in
  let tg = Common.connect s.d ~image:ti.image p in
  Fun.protect ~finally:(fun () -> retire s p tg) (fun () ->
      let t0 = Meter.now_ns () in
      Common.continue_to_exit s.d tg;
      let secs = Meter.ms_of_ns (Meter.now_ns () - t0) /. 1000.0 in
      Run.sample r "machine.insns_per_s" (float_of_int (Run.of_proc p).Run.insns /. secs);
      expect_output s.prog p)

(** The recorded run; returns the trace. *)
let recorded_run (s : state) (r : Run.t) (ti : target_image) ~(spacing : int) : string =
  let d = s.d in
  let t0 = Meter.now_ns () in
  let p = Common.launch ti.built in
  let tg = Common.connect d ~image:ti.image p in
  Fun.protect ~finally:(fun () -> retire s p tg) (fun () ->
      let t1 = Meter.now_ns () in
      Meter.span "replay.start_record" (fun () -> Ldb.start_record tg ~spacing);
      let addr = Meter.span "symtab.break" (fun () -> Ldb.break_function d tg "mark") in
      for j = 1 to s.prog.Gen.tt_marks do
        Common.continue_to_stop d tg;
        if j = 1 then Run.push r.Run.first_stop (Meter.ms_of_ns (Meter.now_ns () - t0))
      done;
      Meter.span "ldb.clear_breakpoint" (fun () -> Ldb.clear_breakpoint tg ~addr);
      Common.continue_to_exit d tg;
      Run.sample r "replay.record_ms" (Meter.ms_of_ns (Meter.now_ns () - t1));
      expect_output s.prog p;
      let bytes = Meter.span "replay.fetch_trace" (fun () -> Ldb.trace_bytes tg) in
      Run.window_sample r "replay.trace_bytes" (float_of_int (String.length bytes));
      bytes)

(** What a replayed target shows at (or just before) the stop at the
    [m]th mark: [total] always, and at the stop itself the mark's
    argument, main's loop counter and the number of earlier marks. *)
let check_stop (s : state) (r : Run.t) tg ~(m : int) ~(at_stop : bool) =
  let p = s.prog in
  let i = m * p.Gen.tt_period in
  let d = s.d in
  let fr = Common.top_frame d tg in
  Run.expect_eq "total" ~want:(string_of_int (Gen.travel_total p i)) (Common.print d tg fr "total");
  if at_stop then begin
    Run.expect_eq "mark's i" ~want:(string_of_int i) (Common.print d tg fr "i");
    Run.expect_eq "marks" ~want:(string_of_int (m - 1)) (Common.print d tg fr "marks");
    let frames = Common.backtrace d tg in
    Run.sample r "frame.depth" (float_of_int (List.length frames));
    match frames with
    | [ _; main ] -> Run.expect_eq "main's i" ~want:(string_of_int i) (Common.print d tg main "i")
    | frames -> raise (Run.Mismatch (Printf.sprintf "expected 2 frames, got %d" (List.length frames)))
  end

let move (s : state) (r : Run.t) rp name motion ~m ~at_stop =
  Run.op r (fun () ->
      let t0 = Meter.now_ns () in
      let tg =
        match Meter.span name (fun () -> motion rp) with
        | Ok tg -> tg
        | Error e -> failwith (name ^ ": " ^ Replay.error_to_string e)
      in
      Run.sample r "replay.move_ms" (Meter.ms_of_ns (Meter.now_ns () - t0));
      Run.window_sample r "replay.seek_insns" (float_of_int (Replay.last_seek_cost rp));
      check_stop s r tg ~m ~at_stop)

let session ?spacing (s : state) (r : Run.t) ~(deadline : int) : unit =
  let ti = s.images.(s.next mod Array.length s.images) in
  s.next <- s.next + 1;
  let spacing =
    match spacing with Some sp -> sp | None -> Gen.travel_spacing s.moves
  in
  plain_run s r ti;
  let bytes = recorded_run s r ti ~spacing in
  let rp =
    match
      Meter.span "replay.open" (fun () -> Replay.of_string s.d ~name:"replay" ~image:ti.image bytes)
    with
    | Ok (rp, []) -> rp
    | Ok (_, _ :: _) -> failwith "the recorded trace came back damaged"
    | Error e -> failwith ("open replay: " ^ Replay.error_to_string e)
  in
  Run.window_sample r "replay.checkpoints" (float_of_int (Replay.checkpoint_count rp));
  Fun.protect
    ~finally:(fun () ->
      match Replay.target rp with Some tg -> Ldb.remove_target s.d tg | None -> ())
    (fun () ->
      let m = ref s.prog.Gen.tt_marks in
      while !m >= 1 && Meter.now_ns () < deadline do
        move s r rp "replay.rcontinue" Replay.rcontinue ~m:!m ~at_stop:true;
        for _ = 1 to Gen.travel_rsteps s.moves do
          if Meter.now_ns () < deadline then
            move s r rp "replay.rstep" Replay.rstep ~m:!m ~at_stop:false
        done;
        decr m
      done)

let setup ~seed (warm : Run.t) : Run.bench =
  let st = Gen.rng ~seed ~salt:7 in
  let prog = Gen.travel_program st in
  let d = Ldb.create () in
  let images =
    Array.of_list
      (List.map
         (fun arch ->
           let built = Common.build_image warm ~arch prog.Gen.tt_sources in
           { built; image = Common.load_image d (snd built) })
         Arch.all)
  in
  let s = { d; prog; images; moves = Gen.rng ~seed ~salt:8; next = 0; retired = Run.zero } in
  (* warm-up: one session per target, at the widest spacing to keep
     set-up short *)
  Array.iter
    (fun _ -> Run.session warm (fun () -> session ~spacing:4096 s warm ~deadline:max_int))
    images;
  { Run.snap = snap s;
    round =
      (fun r ~deadline ->
        while Meter.now_ns () < deadline do
          Run.session r (fun () -> session s r ~deadline)
        done);
    layers = (fun _ -> []) }
