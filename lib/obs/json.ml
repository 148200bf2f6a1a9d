type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* a decimal form that reparses to the same double *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type st = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> raise (Bad (Printf.sprintf "expected '%c' at %d" c st.pos))

let lit st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else raise (Bad (Printf.sprintf "bad literal at %d" st.pos))

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then raise (Bad "unterminated string");
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if st.pos >= String.length st.src then raise (Bad "bad escape");
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
             if st.pos + 4 > String.length st.src then raise (Bad "bad \\u");
             let hex = String.sub st.src st.pos 4 in
             st.pos <- st.pos + 4;
             let code = int_of_string ("0x" ^ hex) in
             (* engine strings are bytes; only BMP codepoints < 256 appear *)
             if code < 256 then Buffer.add_char buf (Char.chr code)
             else raise (Bad "unsupported \\u escape")
         | _ -> raise (Bad "bad escape"));
        go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> raise (Bad (Printf.sprintf "bad number %S" s)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some 'n' -> lit st "null" Null
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then (st.pos <- st.pos + 1; List [])
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; items (v :: acc)
          | Some ']' -> st.pos <- st.pos + 1; List.rev (v :: acc)
          | _ -> raise (Bad "expected ',' or ']'")
        in
        List (items [])
      end
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then (st.pos <- st.pos + 1; Obj [])
      else begin
        let rec pairs acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; pairs ((k, v) :: acc)
          | Some '}' -> st.pos <- st.pos + 1; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad "expected ',' or '}'")
        in
        pairs []
      end
  | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number st
  | _ -> raise (Bad (Printf.sprintf "unexpected input at %d" st.pos))

let parse src =
  let st = { src; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then Error "trailing input" else Ok v
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_list = function List xs -> Some xs | _ -> None
