type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Parser: recursive descent over the input string. Depth is capped so an
   adversarial frame of 100k nested brackets returns an error instead of
   overflowing the stack ("never a crash" protocol contract). *)

let max_depth = 64

exception Fail of string

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Fail (Printf.sprintf "%s at byte %d" msg st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* Encode a Unicode scalar value as UTF-8 bytes into the buffer. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit () =
    match peek st with
    | Some c ->
      advance st;
      (match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "invalid \\u escape")
    | None -> fail st "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 st in
          (* Surrogate pair: a high surrogate must be followed by an
             escaped low surrogate; combine them, else reject. *)
          if u >= 0xD800 && u <= 0xDBFF then begin
            if peek st = Some '\\' then advance st
            else fail st "unpaired surrogate";
            if peek st = Some 'u' then advance st
            else fail st "unpaired surrogate";
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
            add_utf8 buf
              (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if u >= 0xDC00 && u <= 0xDFFF then fail st "unpaired surrogate"
          else add_utf8 buf u
        | _ -> fail st "invalid escape"));
      loop ()
    | Some c when Char.code c < 0x20 -> fail st "raw control byte in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* RFC 8259 numbers: -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?.
   The scan takes the whole numeric token first, so a rejected one ("01",
   "1.", "1.e3") is named in full in the error. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    st.pos - from
  in
  if peek st = Some '-' then advance st;
  let int_start = st.pos in
  let n_int = digits () in
  let ok = n_int = 1 || (n_int > 1 && st.s.[int_start] <> '0') in
  let ok =
    if peek st = Some '.' then begin
      advance st;
      digits () > 0 && ok
    end
    else ok
  in
  let ok =
    match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      digits () > 0 && ok
    | _ -> ok
  in
  let token = String.sub st.s start (st.pos - start) in
  match if ok then float_of_string_opt token else None with
  | Some v -> v
  | None -> fail st (Printf.sprintf "invalid number %S" token)

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st (depth + 1) in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
  | exception Fail msg -> Error msg

(* Printer. *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* 2^53: the largest power of two below which every integer is exact in
   float64, so it prints as the int it is (what %.0f prints). *)
let max_exact_int = 9007199254740992.0

(* Numbers print byte-identically to C's %.17g (17 significant digits,
   trailing zeros stripped, exponent form below 1e-4 or from 1e17 on), but
   without going through printf, which costs about 1 us per float. For a
   normal x = m * 2^e with decimal exponent k in [-22, 16], the 17 digits
   are D = round-half-even(m * 5^j * 2^(e+j)) with j = 16 - k: one exact
   product of m < 2^53 and 5^j < 2^90 in 30-bit limbs, then one rounded
   shift. Every other input goes to the C printer. Each call works in its
   own bytes, so connection threads and domains never share state. *)

let p16 = 10_000_000_000_000_000
let p17 = 100_000_000_000_000_000
let mask30 = (1 lsl 30) - 1

(* 5^j for j = 0 .. 38, the powers below 2^90, as three 30-bit limbs each,
   low limb first. *)
let pow5 =
  let a = Array.make (3 * 39) 0 in
  a.(0) <- 1;
  for j = 1 to 38 do
    let c0 = 5 * a.(3 * (j - 1)) in
    let c1 = (5 * a.((3 * j) - 2)) + (c0 lsr 30) in
    let c2 = (5 * a.((3 * j) - 1)) + (c1 lsr 30) in
    a.(3 * j) <- c0 land mask30;
    a.((3 * j) + 1) <- c1 land mask30;
    a.((3 * j) + 2) <- c2
  done;
  a

(* Print the significand [d] in [10^16, 10^17) at decimal exponent [k] with
   %g's layout. The digits go to bytes 24..40 of a fresh [b]; the text is
   built in bytes 0..23 (at most 23 long) and copied out in one go. *)
let add_g17_digits buf neg d k =
  let b = Bytes.create 41 in
  let d = ref d in
  for i = 40 downto 24 do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  let last = ref 40 in
  while Bytes.unsafe_get b !last = '0' do
    decr last
  done;
  let nd = !last - 23 in
  let p =
    if neg then begin
      Bytes.unsafe_set b 0 '-';
      1
    end
    else 0
  in
  let len =
    if k < -4 || k >= 17 then begin
      Bytes.unsafe_set b p (Bytes.unsafe_get b 24);
      let p =
        if nd > 1 then begin
          Bytes.unsafe_set b (p + 1) '.';
          Bytes.blit b 25 b (p + 2) (nd - 1);
          p + nd + 1
        end
        else p + 1
      in
      (* |k| <= 22 here, and %g always prints two exponent digits. *)
      let a = abs k in
      Bytes.unsafe_set b p 'e';
      Bytes.unsafe_set b (p + 1) (if k < 0 then '-' else '+');
      Bytes.unsafe_set b (p + 2) (Char.unsafe_chr (48 + (a / 10)));
      Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (48 + (a mod 10)));
      p + 4
    end
    else if k >= 0 then begin
      Bytes.blit b 24 b p (k + 1);
      if nd > k + 1 then begin
        Bytes.unsafe_set b (p + k + 1) '.';
        Bytes.blit b (25 + k) b (p + k + 2) (nd - k - 1);
        p + nd + 1
      end
      else p + k + 1
    end
    else begin
      Bytes.unsafe_set b p '0';
      Bytes.unsafe_set b (p + 1) '.';
      Bytes.fill b (p + 2) (-k - 1) '0';
      Bytes.blit b 24 b (p + 1 - k) nd;
      p + 1 - k + nd
    end
  in
  Buffer.add_subbytes buf b 0 len

(* Try the exact path for m * 2^e (m < 2^53) at decimal exponent guess
   [k]; [false] means the input is outside it. The guess is never above
   the true exponent and at most one below it, which shows as a floor of
   x * 10^j at or above 10^17. *)
let rec add_g17_exact buf neg m e k =
  let j = 16 - k in
  if j < 0 || j > 38 then false
  else
    let m0 = m land mask30 and m1 = m lsr 30 in
    let p0 = pow5.(3 * j) and p1 = pow5.((3 * j) + 1) in
    let p2 = pow5.((3 * j) + 2) in
    (* Limb products are below 2^60, so no partial sum overflows. *)
    let c0 = m0 * p0 in
    let c1 = (m0 * p1) + (m1 * p0) + (c0 lsr 30) in
    let c2 = (m0 * p2) + (m1 * p1) + (c1 lsr 30) in
    let c3 = (m1 * p2) + (c2 lsr 30) in
    let l =
      [| c0 land mask30; c1 land mask30; c2 land mask30; c3 land mask30;
         c3 lsr 30 |]
    in
    (* floor(m * 5^j / 2^s) is below 10^18 < 2^60, so s <= 89 and at most
       three limbs take part. *)
    let s = -(e + j) in
    let q =
      if s <= 0 then (l.(0) lor (l.(1) lsl 30)) lsl -s
      else
        let i = s / 30 and o = s mod 30 in
        (l.(i) lsr o) lor (l.(i + 1) lsl (30 - o)) lor (l.(i + 2) lsl (60 - o))
    in
    if q >= p17 then add_g17_exact buf neg m e (k + 1)
    else
      (* Round half to even: bit s - 1 is the half; below it, any set bit
         breaks a tie upwards. *)
      let up =
        s > 0
        &&
        let i = (s - 1) / 30 and o = (s - 1) mod 30 in
        (l.(i) lsr o) land 1 = 1
        && (q land 1 = 1
           || l.(i) land ((1 lsl o) - 1) <> 0
           || (i >= 1 && l.(0) <> 0)
           || (i = 2 && l.(1) <> 0))
      in
      let d = if up then q + 1 else q in
      (* A floor below 10^17 can still round up to it: the double nearest
         1e-14 lies just below 1e-14 and prints as 1e-14. *)
      if d = p17 then add_g17_digits buf neg p16 (k + 1)
      else add_g17_digits buf neg d k;
      true

let add_number buf v =
  if not (Float.is_finite v) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer v && Float.abs v < max_exact_int then
    if v = 0.0 && Float.sign_bit v then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float v))
  else
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let biased = (bits lsr 52) land 0x7ff in
    (* Zero takes the integer path, so [biased = 0] is a subnormal. The
       guess floor((biased - 1023) * log10 2) = floor(log10 2^E), E the
       binary exponent, is exact in this fixed-point form for every normal
       double. *)
    if
      biased = 0
      || not
           (add_g17_exact buf (v < 0.0)
              (bits land 0xF_FFFF_FFFF_FFFF lor (1 lsl 52))
              (biased - 1075)
              (((biased - 1023) * 78913) asr 18))
    then Buffer.add_string buf (Printf.sprintf "%.17g" v)

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num v -> add_number buf v
    | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          emit v)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.equal equal a b
  | Obj a, Obj b ->
    List.equal (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | _ -> false

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
