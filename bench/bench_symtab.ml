(** Symbol-table benchmark: demand-driven forcing and indexed lookup
    against the eager, linear-scan baseline the debugger used to run.

    Measures, on every SIM target, over a synthetic program of several
    compilation units and ~100 procedures:

    - cold attach + first breakpoint: eager (force the whole table, then
      plant) vs lazy (plant; only the queried unit forces), plus how many
      bytes of deferred table text each actually executed;
    - query throughput on a fully forced table: [proc_by_name],
      [stops_at_line] and pc->stop-addresses mapping, indexed vs the
      pre-index linear scans.

    Emits BENCH_symtab.json.

    Run with: dune exec bench/bench_symtab.exe
    Flags: -smoke (reduced iterations, for CI), -o FILE (output path). *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Symtab = Ldb_ldb.Symtab

let smoke = Array.exists (( = ) "-smoke") Sys.argv

let out_path =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then "BENCH_symtab.json"
    else if Sys.argv.(i) = "-o" then Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 0

let attach_iters = if smoke then 2 else 5
let query_iters = if smoke then 500 else 10_000

(* --- synthetic program: [n_units] units x [funcs_per_unit] procedures --- *)

let n_units = 8
let funcs_per_unit = 12

let func_name u i = Printf.sprintf "f_%d_%d" u i

let unit_source u =
  let buf = Buffer.create 1024 in
  for i = 0 to funcs_per_unit - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "int %s(int x)\n{\n    int a;\n    int b;\n    a = x + %d;\n    b = a * 2;\n    a = b - x;\n    return a;\n}\n"
         (func_name u i) (i + 1))
  done;
  if u = 0 then begin
    Buffer.add_string buf "int main(void)\n{\n    int r;\n    r = 0;\n";
    for v = 0 to n_units - 1 do
      Buffer.add_string buf (Printf.sprintf "    r = r + %s(%d);\n" (func_name v 0) v)
    done;
    Buffer.add_string buf "    printf(\"%d\\n\", r);\n    return 0;\n}\n"
  end;
  Buffer.contents buf

let sources = List.init n_units (fun u -> (Printf.sprintf "u%d.c" u, unit_source u))

let all_names =
  List.concat (List.init n_units (fun u -> List.init funcs_per_unit (func_name u)))

(* --- timing ----------------------------------------------------------------- *)

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (Sys.time () -. t0, r)

(* --- the pre-index baselines (what Symtab.proc_by_name and
   stops_at_line were before this change: scans over the flat lists) --- *)

let scan_proc_by_name all name =
  List.find_opt (fun e -> Symtab.entry_name e = name) all

let scan_stops_at_line all line =
  List.concat_map
    (fun p ->
      List.filter (fun s -> s.Symtab.stop_line = line) (Symtab.stops_of_proc p))
    all

type attach_cell = {
  at_eager_s : float;
  at_lazy_s : float;
  at_total_bytes : int;
  at_lazy_bytes : int;
  at_lazy_units : int;
  at_unit_count : int;
}

type query_cell = { q_indexed_s : float; q_scan_s : float }

type validity_cell = {
  vc_bytes_plain : int;      (** table bytes with the validity pass off *)
  vc_bytes_ranges : int;     (** table bytes with ranges emitted (the default) *)
  vc_attach_plain_s : float;
  vc_attach_ranges_s : float;
}

type target_row = {
  tr_arch : string;
  tr_attach : attach_cell;
  tr_by_name : query_cell;
  tr_by_line : query_cell;
  tr_pc_map : query_cell;
  tr_validity : validity_cell;
}

(** Cold attach + first breakpoint.  The launch (compile, link, load) is
    outside the timed region: the paper's startup cost is reading the
    symbol table, and that is what deferral attacks. *)
let bench_attach ~arch : attach_cell =
  let eager = ref 0.0 and lazy_ = ref 0.0 in
  let total_bytes = ref 0 and lazy_bytes = ref 0 and lazy_units = ref 0 in
  let unit_count = ref 0 in
  let target = func_name (n_units - 1) (funcs_per_unit / 2) in
  for _ = 1 to attach_iters do
    (* eager: read the loader table, force everything, then plant *)
    let p = Host.launch ~paused:true ~arch sources in
    let te, _ =
      time (fun () ->
          let d = Ldb.create () in
          let tg =
            Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps
              (Host.open_channel p)
          in
          Ldb.force_symbols d tg;
          ignore (Ldb.break_function d tg target : int);
          tg)
    in
    eager := !eager +. te;
    (* lazy: plant directly; only the defining unit forces *)
    let p = Host.launch ~paused:true ~arch sources in
    let tl, tg =
      time (fun () ->
          let d = Ldb.create () in
          let tg =
            Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps
              (Host.open_channel p)
          in
          ignore (Ldb.break_function d tg target : int);
          tg)
    in
    lazy_ := !lazy_ +. tl;
    let st = tg.Ldb.tg_symtab in
    total_bytes := Symtab.total_bytes st;
    lazy_bytes := Symtab.forced_bytes st;
    lazy_units := List.length (Symtab.forced_units st);
    unit_count := Symtab.unit_count st
  done;
  {
    at_eager_s = !eager;
    at_lazy_s = !lazy_;
    at_total_bytes = !total_bytes;
    at_lazy_bytes = !lazy_bytes;
    at_lazy_units = !lazy_units;
    at_unit_count = !unit_count;
  }

let bench_queries ~arch : query_cell * query_cell * query_cell =
  let d = Ldb.create () in
  let p = Host.launch ~paused:true ~arch sources in
  let tg =
    Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps
      (Host.open_channel p)
  in
  let st = tg.Ldb.tg_symtab in
  Ldb.force_symbols d tg;
  let all = Symtab.procs st in
  let names = Array.of_list all_names in
  let nnames = Array.length names in
  (* proc_by_name: index vs scan *)
  let t_ix, _ =
    time (fun () ->
        for i = 1 to query_iters do
          ignore (Symtab.proc_by_name st names.(i mod nnames) : Ldb_pscript.Value.t option)
        done)
  in
  let t_sc, _ =
    time (fun () ->
        for i = 1 to query_iters do
          ignore (scan_proc_by_name all names.(i mod nnames) : Ldb_pscript.Value.t option)
        done)
  in
  let by_name = { q_indexed_s = t_ix; q_scan_s = t_sc } in
  (* stops_at_line: index vs scan (lines 2..9 all carry stops) *)
  let line_of i = 2 + (i mod 8) in
  let t_ix, _ =
    time (fun () ->
        for i = 1 to query_iters do
          ignore (Symtab.stops_at_line st ~line:(line_of i) : Symtab.stop list)
        done)
  in
  let t_sc, _ =
    time (fun () ->
        for i = 1 to query_iters do
          ignore (scan_stops_at_line all (line_of i) : Symtab.stop list)
        done)
  in
  let by_line = { q_indexed_s = t_ix; q_scan_s = t_sc } in
  (* pc -> stop addresses (the single-step loop's query): memoized pc
     index vs re-deriving every stop address through the interpreter *)
  let pcs =
    Array.of_list
      (List.filter_map
         (fun name ->
           match Symtab.proc_by_name st name with
           | Some e -> (
               match Symtab.stops_of_proc e with
               | s :: _ -> Some (Ldb.stop_address d tg s)
               | [] -> None)
           | None -> None)
         (List.filteri (fun i _ -> i < 16) all_names))
  in
  let npcs = Array.length pcs in
  let t_ix, _ =
    time (fun () ->
        for i = 1 to query_iters do
          ignore (Ldb.stop_addresses d tg ~pc:pcs.(i mod npcs) : int list)
        done)
  in
  let t_sc, _ =
    time (fun () ->
        for i = 1 to query_iters do
          let pc = pcs.(i mod npcs) in
          ignore
            (match Ldb.proc_entry_at d tg ~pc with
             | None -> []
             | Some proc -> List.map (Ldb.stop_address d tg) (Symtab.stops_of_proc proc)
              : int list)
        done)
  in
  (by_name, by_line, { q_indexed_s = t_ix; q_scan_s = t_sc })

(** What the validity ranges cost: table size and eager attach time with
    the analysis pass on (the default) versus gated off.  The committed
    check_regress gate holds the byte overhead under 10%. *)
let bench_validity ~arch : validity_cell =
  let measure validity =
    let image = Ldb_link.Driver.build ~validity ~arch sources in
    let bytes = ref 0 and secs = ref 0.0 in
    for _ = 1 to attach_iters do
      let p = Host.launch_image image in
      let t, tg =
        time (fun () ->
            let d = Ldb.create () in
            let tg =
              Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps
                (Host.open_channel p)
            in
            Ldb.force_symbols d tg;
            tg)
      in
      secs := !secs +. t;
      bytes := Symtab.total_bytes tg.Ldb.tg_symtab
    done;
    (!bytes, !secs)
  in
  let bytes_plain, attach_plain = measure false in
  let bytes_ranges, attach_ranges = measure true in
  {
    vc_bytes_plain = bytes_plain;
    vc_bytes_ranges = bytes_ranges;
    vc_attach_plain_s = attach_plain;
    vc_attach_ranges_s = attach_ranges;
  }

let bench_target arch : target_row =
  let attach = bench_attach ~arch in
  let by_name, by_line, pc_map = bench_queries ~arch in
  let validity = bench_validity ~arch in
  { tr_arch = Arch.name arch; tr_attach = attach; tr_by_name = by_name;
    tr_by_line = by_line; tr_pc_map = pc_map; tr_validity = validity }

(* --- report -------------------------------------------------------------------- *)

let speedup ~slow ~fast = slow /. (fast +. 1e-9)

let () =
  let rows = List.map bench_target Arch.all in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"benchmark\": \"symtab demand-driven\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": \"%d units x %d procs; attach+break, then %d queries per lookup kind\",\n"
       n_units funcs_per_unit query_iters);
  Buffer.add_string buf (Printf.sprintf "  \"query_iterations\": %d,\n" query_iters);
  Buffer.add_string buf "  \"targets\": [\n";
  List.iteri
    (fun i r ->
      let a = r.tr_attach in
      let q name (c : query_cell) =
        Printf.sprintf
          "\"%s\": {\"indexed_seconds\": %.4f, \"scan_seconds\": %.4f, \"speedup\": %.1f}"
          name c.q_indexed_s c.q_scan_s
          (speedup ~slow:c.q_scan_s ~fast:c.q_indexed_s)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"arch\": \"%s\",\n\
           \     \"attach\": {\"eager_seconds\": %.4f, \"lazy_seconds\": %.4f, \
            \"speedup\": %.1f, \"table_bytes\": %d, \"lazy_forced_bytes\": %d, \
            \"lazy_forced_units\": %d, \"unit_count\": %d},\n\
           \     %s,\n\
           \     %s,\n\
           \     %s}%s\n"
           r.tr_arch a.at_eager_s a.at_lazy_s
           (speedup ~slow:a.at_eager_s ~fast:a.at_lazy_s)
           a.at_total_bytes a.at_lazy_bytes a.at_lazy_units a.at_unit_count
           (q "proc_by_name" r.tr_by_name)
           (q "stops_at_line" r.tr_by_line)
           (let v = r.tr_validity in
            Printf.sprintf
              "%s,\n\
              \     \"validity\": {\"table_bytes_plain\": %d, \"table_bytes_ranges\": %d, \
               \"bytes_overhead_ratio\": %.4f, \"attach_plain_seconds\": %.4f, \
               \"attach_ranges_seconds\": %.4f}"
              (q "pc_map" r.tr_pc_map)
              v.vc_bytes_plain v.vc_bytes_ranges
              (float_of_int (v.vc_bytes_ranges - v.vc_bytes_plain)
              /. float_of_int (max 1 v.vc_bytes_plain))
              v.vc_attach_plain_s v.vc_attach_ranges_s)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf)
