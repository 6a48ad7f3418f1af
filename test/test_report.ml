(* Tests for the pure bench report helpers: the keyed-matrix flip counter
   behind every lane-vs-lane gate, the report renderer, and the geo-mean
   of timing pairs. *)

module Report = Bench_report.Report

let test_lane_flips () =
  let lane = [ ("accum", "pass@8"); ("mac", "fail:output@3"); ("rle", "pass@6") ] in
  Alcotest.(check int) "equal matrices" 0 (Report.lane_flips lane lane);
  Alcotest.(check int)
    "order does not matter" 0
    (Report.lane_flips lane (List.rev lane));
  Alcotest.(check int)
    "one changed verdict" 1
    (Report.lane_flips lane
       [ ("accum", "pass@8"); ("mac", "pass@8"); ("rle", "pass@6") ]);
  (* A cell only one lane has is a flip, whichever lane lost it. *)
  Alcotest.(check int)
    "cell missing on the right" 1
    (Report.lane_flips lane (List.tl lane));
  Alcotest.(check int)
    "cell missing on the left" 1
    (Report.lane_flips (List.tl lane) lane);
  Alcotest.(check int)
    "disjoint keys" 2
    (Report.lane_flips [ (1, "pass") ] [ (2, "pass") ])

let sample =
  Report.(
    Obj
      [
        ("schema", Str "gqed-bench/9");
        ( "obs",
          Row
            [ ("enabled", Bool false); ("trace_wellformed", Null); ("verdict_flips", Int 0) ]
        );
        ("experiments", Arr [ Row [ ("id", Str "rob"); ("wall_s", Num (3, 1.5)) ] ]);
        ("solver", Arr []);
        ( "dist",
          Obj
            [
              ("speedup_geo_mean", Num (4, nan));
              ("kill", Row [ ("killed", Bool true); ("rate", Num (3, 0.25)) ]);
              ("matrix", Arr [ Row [ ("design", Str "rle"); ("flips", Int 0) ] ]);
            ] );
      ])

(* The same tree in Obs.Json terms, as [Obs.Json.parse] must read the
   rendered report back: NaN figures are null, numbers are floats. *)
let rec to_obs = function
  | Report.Null -> Obs.Json.Null
  | Report.Bool b -> Obs.Json.Bool b
  | Report.Int n -> Obs.Json.Num (float_of_int n)
  | Report.Num (_, x) when Float.is_nan x -> Obs.Json.Null
  | Report.Num (_, x) -> Obs.Json.Num x
  | Report.Str s -> Obs.Json.Str s
  | Report.Arr xs -> Obs.Json.Arr (List.map to_obs xs)
  | Report.Obj kvs | Report.Row kvs ->
      Obs.Json.Obj (List.map (fun (k, v) -> (k, to_obs v)) kvs)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_render_parses () =
  match Obs.Json.parse (Report.render sample) with
  | Ok tree ->
      Alcotest.(check bool) "round-trips to the same tree" true (tree = to_obs sample)
  | Error msg -> Alcotest.failf "rendered report does not parse: %s" msg

let test_render_layout () =
  let text = Report.render sample in
  (* CI greps reports for exactly these spellings. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains text needle))
    [
      "\"verdict_flips\": 0";
      "\"schema\": \"gqed-bench/9\"";
      "\"trace_wellformed\": null";
      "\"wall_s\": 1.500";
      "\"speedup_geo_mean\": null";
    ];
  Alcotest.(check string)
    "layout"
    "{\n\
    \  \"schema\": \"gqed-bench/9\",\n\
    \  \"obs\": {\"enabled\": false, \"trace_wellformed\": null, \"verdict_flips\": 0},\n\
    \  \"experiments\": [\n\
    \    {\"id\": \"rob\", \"wall_s\": 1.500}\n\
    \  ],\n\
    \  \"solver\": [\n\
    \  ],\n\
    \  \"dist\": {\n\
    \    \"speedup_geo_mean\": null,\n\
    \    \"kill\": {\"killed\": true, \"rate\": 0.250},\n\
    \    \"matrix\": [\n\
    \      {\"design\": \"rle\", \"flips\": 0}\n\
    \    ]\n\
    \  }\n\
     }\n"
    text

let test_geo_mean_ratio () =
  (match Report.geo_mean_ratio [ (4.0, 1.0); (1.0, 1.0) ] with
  | Some v -> Alcotest.(check (float 1e-9)) "geo-mean of 4x and 1x" 2.0 v
  | None -> Alcotest.fail "usable pairs produced no geo-mean");
  (* Nonpositive sides carry no signal and must be filtered, not poison
     the mean. *)
  (match Report.geo_mean_ratio [ (4.0, 1.0); (0.0, 1.0); (1.0, -2.0) ] with
  | Some v -> Alcotest.(check (float 1e-9)) "filtered mean" 4.0 v
  | None -> Alcotest.fail "filtering dropped the usable pair too");
  match Report.geo_mean_ratio [ (0.0, 1.0) ] with
  | None -> ()
  | Some v -> Alcotest.failf "no usable pairs but got %.3f" v

let suite =
  [
    Alcotest.test_case "lane flips over keyed matrices" `Quick test_lane_flips;
    Alcotest.test_case "rendered report parses back" `Quick test_render_parses;
    Alcotest.test_case "rendered report layout" `Quick test_render_layout;
    Alcotest.test_case "geo-mean ratio" `Quick test_geo_mean_ratio;
  ]
