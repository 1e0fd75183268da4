(** [cold_start]: the paper's time-to-first-stop path (T2), once per op.

    Each op starts a fresh debugger, launches a fresh process of a
    prebuilt multi-unit program, reads its loader PostScript, plants a
    breakpoint on a seeded procedure, runs to it and prints the
    parameter.  Nothing is shared between ops, so PostScript loading,
    unit forcing and anchor resolution dominate. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Link = Ldb_link.Link

let programs_per_arch = 2

type image = { arch : Arch.t; prog : Gen.cold_program; built : Link.image * string }

(** Build the image pool: every generated program on every target. *)
let build_pool ~seed (r : Run.t) : image array =
  let st = Gen.rng ~seed ~salt:1 in
  let progs = List.init programs_per_arch (fun tag -> Gen.cold_program st ~tag) in
  List.concat_map
    (fun arch ->
      List.map
        (fun prog -> { arch; prog; built = Common.build_image r ~arch prog.Gen.co_sources })
        progs)
    Arch.all
  |> Array.of_list

(** One cold start on [im], breaking on procedure [k]. *)
let cold_op (r : Run.t) ~(acc : Run.snap ref) (im : image) (k : int) : unit =
  let pr = im.prog.Gen.co_procs.(k) in
  Run.op r (fun () ->
      let t0 = Meter.now_ns () in
      let d = Meter.span "ldb.create" Ldb.create in
      let p = Common.launch im.built in
      let image = Common.load_image d (snd im.built) in
      let tg = Common.connect d ~image p in
      Common.break_function d tg pr.Gen.cp_name;
      Common.continue_to_stop d tg;
      Run.push r.Run.first_stop (Meter.ms_of_ns (Meter.now_ns () - t0));
      let fr = Common.top_frame d tg in
      Run.expect_eq "parameter x" ~want:(string_of_int pr.Gen.cp_arg)
        (Common.print d tg fr "x");
      Meter.span "ldb.kill" (fun () -> Ldb.kill tg);
      acc :=
        List.fold_left Run.add !acc
          [ Run.of_proc p; Run.of_target tg; Run.of_debugger d; Run.of_image image ])

let setup ~seed (warm : Run.t) : Run.bench =
  let pool = build_pool ~seed warm in
  let n = Array.length pool in
  let picks = Gen.rng ~seed ~salt:2 in
  let procs = Gen.cold_units * Gen.cold_procs_per_unit in
  let acc = ref Run.zero in
  let next = ref 0 in
  let one r =
    let im = pool.(!next mod n) in
    incr next;
    Run.session r (fun () -> cold_op r ~acc im (Random.State.int picks procs))
  in
  (* warm-up: two cold starts per image, so every code path and the
     per-architecture PostScript have run once *)
  for _ = 1 to 2 * n do one warm done;
  { Run.layers = (fun _ -> []);
    snap = (fun () -> !acc);
    round = (fun r ~deadline -> while Meter.now_ns () < deadline do one r done) }
