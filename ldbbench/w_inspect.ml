(** [inspect]: the IDE-style refresh at every stop of a deep recursion.

    One debugger and one shared image per target, so symbol tables are
    forced once; each op continues to the next hit of a breakpoint at the
    bottom of a seeded recursion, walks the stack, prints every parameter
    and local in every frame, and stores into one frame's local.  The
    store changes what main accumulates, which the next stop reads back,
    so a read cache that misses an invalidation shows up as a wrong
    answer here. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host

type target_image = { built : Ldb_link.Link.image * string; image : Ldb.image }

type state = {
  d : Ldb.t;
  prog : Gen.inspect_program;
  images : target_image array;  (** one per target *)
  writes : Random.State.t;  (** which frame to store into, and what *)
  mutable next : int;
  mutable retired : Run.snap;  (** counters of finished processes *)
  mutable live : (Host.process * Ldb.target) option;
}

let snap (s : state) () =
  let live =
    match s.live with
    | Some (p, tg) -> Run.add (Run.of_proc p) (Run.of_target tg)
    | None -> Run.zero
  in
  Array.fold_left
    (fun acc ti -> Run.add acc (Run.of_image ti.image))
    (Run.add (Run.add s.retired live) (Run.of_debugger s.d))
    s.images

(** One refresh at the stop inside run [(depth, acc)]; returns the value
    added to one frame's [loc]. *)
let refresh (s : state) (r : Run.t) tg ~depth ~acc ~main_s ~stopped : int =
  let d = s.d in
  Common.continue_to_stop d tg;
  stopped ();
  let frames = Common.backtrace d tg in
  Run.sample r "frame.depth" (float_of_int (List.length frames));
  let want = Gen.inspect_frames s.prog ~depth ~acc ~s:main_s in
  Run.expect
    (List.length frames = List.length want)
    "backtrace depth: expected %d frames, got %d" (List.length want) (List.length frames);
  List.iter2
    (fun fr (fn, vars) ->
      List.iter
        (fun (v, value) ->
          Run.expect_eq (fn ^ " " ^ v) ~want:(Common.shown v value) (Common.print d tg fr v))
        vars)
    frames want;
  (* frames 1 .. depth+1 are walk(0) .. walk(depth) *)
  let k = Gen.between s.writes 0 depth in
  let delta = Gen.between s.writes 1 50 in
  let loc =
    match List.assoc "loc" (snd (List.nth want (k + 1))) with
    | Gen.Int n -> n
    | Gen.Uninit -> assert false
  in
  Common.assign d tg (List.nth frames (k + 1)) "loc" (loc + delta);
  delta

(** Launch a process on the next target and refresh at its stops until
    the program exits or the deadline passes. *)
let session (s : state) (r : Run.t) ~(deadline : int) ~(max_stops : int) : unit =
  let ti = s.images.(s.next mod Array.length s.images) in
  s.next <- s.next + 1;
  let d = s.d in
  let t0 = Meter.now_ns () in
  let p = Common.launch ti.built in
  let tg = Common.connect d ~image:ti.image p in
  s.live <- Some (p, tg);
  let finish () =
    s.live <- None;
    s.retired <- Run.add s.retired (Run.add (Run.of_proc p) (Run.of_target tg));
    Ldb.remove_target d tg
  in
  Fun.protect ~finally:finish (fun () ->
      Common.break_line d tg ~file:s.prog.Gen.in_file ~line:s.prog.Gen.in_break_line;
      let runs = s.prog.Gen.in_runs in
      let main_s = ref 0 in
      let stops = min max_stops (Array.length runs) in
      let j = ref 0 in
      while !j < stops && Meter.now_ns () < deadline do
        let depth, acc = runs.(!j) in
        let stopped () =
          if !j = 0 then Run.push r.Run.first_stop (Meter.ms_of_ns (Meter.now_ns () - t0))
        in
        let delta = Run.op r (fun () -> refresh s r tg ~depth ~acc ~main_s:!main_s ~stopped) in
        main_s := Gen.wrap32 (!main_s + Gen.inspect_result s.prog ~depth ~acc ~delta);
        incr j
      done;
      if !j = Array.length runs then begin
        Common.continue_to_exit d tg;
        Run.expect_eq "program output" ~want:(Printf.sprintf "%d\n" !main_s) (Host.output p)
      end
      else Meter.span "ldb.kill" (fun () -> Ldb.kill tg))

let setup ~seed (warm : Run.t) : Run.bench =
  let prog = Gen.inspect_program (Gen.rng ~seed ~salt:3) in
  let d = Ldb.create () in
  let images =
    Array.of_list
      (List.map
         (fun arch ->
           let built = Common.build_image warm ~arch prog.Gen.in_sources in
           { built; image = Common.load_image d (snd built) })
         Arch.all)
  in
  let s =
    { d; prog; images; writes = Gen.rng ~seed ~salt:4; next = 0; retired = Run.zero;
      live = None }
  in
  (* warm-up: a few stops on every target force the units, indexes and
     per-architecture PostScript the timed ops share *)
  Array.iter
    (fun _ -> Run.session warm (fun () -> session s warm ~deadline:max_int ~max_stops:4))
    images;
  { Run.layers = (fun _ -> []);
    snap = snap s;
    round =
      (fun r ~deadline ->
        while Meter.now_ns () < deadline do
          Run.session r (fun () -> session s r ~deadline ~max_stops:max_int)
        done) }
