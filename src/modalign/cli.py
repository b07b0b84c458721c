"""Command-line front end composing the pipeline end to end.

One binary, one subcommand per stage::

    modalign ingest   --manifest corpus/manifest.json --out corpus.idx
    modalign pitch    --index corpus.idx --out word_pitch.csv
    modalign segments --index corpus.idx --out segments.csv
    modalign align    --index corpus.idx --source text --target segments --out pairs.csv
    modalign query    --index corpus.idx --select text --where "gaze.label==AfD" --out hits.csv
    modalign regress  --index corpus.idx --out results/
    modalign fw       --index corpus.idx --out fw.csv
    modalign advise   --data discrete --representation semantic --integration implicit
    modalign synth    --out corpus/ --seed 7 --effect 0.15

Settings resolve as: command-line flags, then the ``--config`` JSON file,
then built-in defaults.  All outputs are deterministic: rerunning any
command on unchanged inputs writes byte-identical files.  Exit codes:
0 success, 2 invalid parameters or configuration, 3 defective input data.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat
from pathlib import Path
from typing import get_args, get_type_hints

from . import gaze as gaze_mod
from . import ingest, latent, pitch, stats, synth
from .errors import DataError, EngineError, ValidationError
from .pitch import PitchSettings
from .timeline import Modality, covered, join_streams, not_utf8, query_crossmodal


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    pitch: PitchSettings = PitchSettings()
    address: gaze_mod.AddressRule = gaze_mod.AddressRule()
    target_party: str = "AfD"     # party whose addressing defines the interaction baseline
    prior_scale: float = 1.0      # total Dirichlet prior mass for the lexical comparison


def _read_json(path, what: str):
    """The document in a ``--config`` or ``--spec`` JSON file; a file that is not one is exit 2."""
    try:
        return ingest._read_json_file(Path(path), lambda doc: doc)
    except DataError as e:  # MissingFile or ParseError: a bad setting, not bad data
        raise ValidationError(f"cannot read {what}: {type(e).__name__}: {e}") from None


def _fits(hint, value) -> bool:
    """Does a JSON value have a field's annotated type?  A float field takes an int a float holds."""
    options = get_args(hint) or (hint,)
    if value is None:
        return type(None) in options
    want = next(t for t in options if t is not type(None))
    if want is float:
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            return False
        want = (int, float)
    return isinstance(value, want) and isinstance(value, bool) == (want is bool)


def _settings(cls, doc, args: argparse.Namespace, where: str):
    """Dataclass ``cls`` built from a JSON object, explicitly passed flags winning.

    A flag's argparse ``dest`` is the name of the field it sets; a field
    holding a dataclass reads a JSON object of its own and the same flags.
    Unknown keys and values of the wrong JSON type raise ValidationError.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    unknown = doc.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            values[f.name] = _settings(hint, doc.get(f.name, {}), args, f"{where}, {f.name!r}")
            continue
        if f.name in doc:
            if not _fits(hint, doc[f.name]):
                raise ValidationError(
                    f"{where}: {f.name} must be {getattr(hint, '__name__', hint)}, "
                    f"got {doc[f.name]!r}"
                )
            values[f.name] = doc[f.name]
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return cls(**values)


# --- shared pipeline pieces ------------------------------------------------

def corpus_word_pitches(index: ingest.CorpusIndex, cfg: RunConfig):
    """Word pitches for every session, standardized per speaker across the corpus.

    Returns ``(sessions, word_pitches)`` where ``sessions`` maps session id
    to its :class:`~modalign.ingest.SessionData` and ``word_pitches`` is a
    flat, standardized list in (session, time) order.
    """
    sessions, flat = {}, []
    for sid in index.session_ids():
        data = sessions[sid] = index.load_session(sid)
        band = index.speakers()[data.speaker_id].gender_range
        with ingest.read_wav(data.audio_path) as audio:
            track = pitch.estimate_pitch_track(audio, band, cfg.pitch, session_id=sid)
        flat += pitch.word_pitch(track, data.words)
    return sessions, pitch.standardize_by_speaker(flat, per_session=cfg.pitch.per_session)


def session_segments(index: ingest.CorpusIndex, cfg: RunConfig):
    """Detected, word-filtered address segments per session id."""
    rule = cfg.address
    out = {}
    for sid in index.session_ids():
        data = index.load_session(sid)
        raw = gaze_mod.detect_address_segments(data.gaze, rule)
        out[sid] = gaze_mod.enforce_min_words(raw, data.words, rule)
    return out


# --- commands --------------------------------------------------------------

def cmd_ingest(args, cfg: RunConfig) -> int:
    out = ingest.build_index(args.manifest, args.out)
    print(out)
    return 0


def cmd_pitch(args, cfg: RunConfig) -> int:
    index = ingest.CorpusIndex(args.index)
    sessions, pitches = corpus_word_pitches(index, cfg)
    words = [
        (data.session_id, *word, data.speaker_id)
        for data in (sessions[sid] for sid in index.session_ids())
        for word in zip(data.words.ids, data.words.payloads,
                        data.words.starts.tolist(), data.words.ends.tolist())
    ]
    ingest.write_csv(
        args.out,
        "session_id,word_id,word,start,end,speaker_id,mean_f0,voiced_frames,z",
        [
            (*word, wp.mean_f0, wp.voiced_frame_count, wp.z)
            for word, wp in zip(words, pitches, strict=True)
        ],
    )
    missing = pitch.missing_count(pitches)
    print(f"{len(pitches)} words, {missing} without voiced frames -> {args.out}")
    return 0


def cmd_segments(args, cfg: RunConfig) -> int:
    index = ingest.CorpusIndex(args.index)
    segments = session_segments(index, cfg)
    rows = []
    for sid in index.session_ids():
        segs = segments[sid]
        rows += zip(repeat(sid), repeat(segs.label), segs.starts.tolist(), segs.ends.tolist(),
                    segs.word_counts.tolist())
    ingest.write_csv(args.out, "session_id,label,start,end,word_count", rows)
    print(f"{len(rows)} segments -> {args.out}")
    return 0


def session_streams(index: ingest.CorpusIndex, cfg: RunConfig):
    """(words, segments-or-None stream) per session, for align and query."""
    out = {}
    for sid, segs in session_segments(index, cfg).items():
        data = index.load_session(sid)
        stream = None
        if segs:
            stream = gaze_mod.segments_to_stream(segs, sid, speaker_id=data.speaker_id)
        out[sid] = (data.words, stream)
    return out


def cmd_align(args, cfg: RunConfig) -> int:
    index = ingest.CorpusIndex(args.index)
    streams = session_streams(index, cfg)
    rows = []
    summaries = []
    for sid in index.session_ids():
        words, segs = streams[sid]
        pick = {"text": words, "segments": segs}
        source, target = pick[args.source], pick[args.target]
        if source is None or target is None:
            summaries.append(f"{sid}: no segments")
            continue
        amap = join_streams(source, target, min_overlap=args.min_overlap)
        rows += zip(repeat(sid), amap.source_ids(), amap.target_ids(), amap.overlap.tolist())
        summaries.append(f"{sid}: {len(amap)} pairs, {amap.cardinality.value}")
    ingest.write_csv(args.out, "session_id,source_id,target_id,overlap_seconds", rows)
    for s in summaries:
        print(s)
    return 0


_WHERE_MODALITIES = {
    "text": Modality.TEXT,
    "derived": Modality.DERIVED,
    "gaze": Modality.DERIVED,      # address segments are a derived stream
    "segments": Modality.DERIVED,
}


def _parse_where(expr: str):
    """``modality.attr==value`` → (modality, predicate).  attr is cosmetic."""
    if "==" not in expr:
        raise ValidationError(f"where-expression {expr!r} must look like gaze.label==VALUE")
    lhs, value = expr.split("==", 1)
    lhs = lhs.strip()
    value = value.strip()
    if "." not in lhs:
        raise ValidationError(f"where-expression {expr!r}: left side needs modality.attr")
    mod_name, attr = lhs.split(".", 1)
    if mod_name not in _WHERE_MODALITIES:
        raise ValidationError(
            f"unknown modality {mod_name!r}; choose from {sorted(_WHERE_MODALITIES)}"
        )
    if attr not in ("label", "word", "payload"):
        raise ValidationError(f"unknown attribute {attr!r}; choose label, word, or payload")
    if not_utf8((value,)) is not None:
        raise ValidationError(f"where-expression value {value!r} holds a lone surrogate")
    return _WHERE_MODALITIES[mod_name], (lambda e: e.payload == value)


def cmd_query(args, cfg: RunConfig) -> int:
    index = ingest.CorpusIndex(args.index)
    select = _WHERE_MODALITIES.get(args.select)
    if select is None:
        raise ValidationError(f"unknown select modality {args.select!r}")
    where_modality, predicate = _parse_where(args.where)
    corpus = [s for pair in session_streams(index, cfg).values() for s in pair if s is not None]
    hits = query_crossmodal(corpus, select, predicate, where_modality)
    rows = zip(hits.session_ids, hits.ids, hits.starts.tolist(), hits.ends.tolist(), hits.payloads)
    ingest.write_csv(args.out, "session_id,id,start,end,payload", rows)
    print(f"{len(hits)} elements -> {args.out}")
    return 0


def interaction_name(party: str) -> str:
    return f"addressing_x_{party}"


def speaker_parties(index: ingest.CorpusIndex, cfg: RunConfig) -> dict[str, str]:
    """Party per speaker of the index's sessions.

    Raises :class:`ValidationError` unless ``cfg.target_party`` is one of
    those parties; a party with no session in the index is none of them.
    """
    party_of = {spk: p.party for spk, p in index.speakers().items()}
    if cfg.target_party not in party_of.values():
        raise ValidationError(
            f"target party {cfg.target_party!r} has no speaker; "
            f"parties on record: {', '.join(sorted(set(party_of.values())))}"
        )
    return party_of


def build_panel(index: ingest.CorpusIndex, cfg: RunConfig):
    """Panel rows for the addressing regression, plus the party list."""
    party_of = speaker_parties(index, cfg)
    _, pitches = corpus_word_pitches(index, cfg)
    addressed = []  # per word, in the (session, time) order of the pitches
    for sid, segs in session_segments(index, cfg).items():
        words = index.load_session(sid).words
        addressed += covered(segs.starts, segs.ends, words.starts, words.ends).tolist()
    parties = sorted(set(party_of.values()))
    interactions = [(p, interaction_name(p)) for p in parties if p != cfg.target_party]
    rows = []
    skipped = 0
    for wp, a in zip(pitches, map(float, addressed), strict=True):
        if wp.z is None:
            skipped += 1
            continue
        party = party_of[wp.speaker_id]
        regs = {name: a if party == p else 0.0 for p, name in interactions}
        rows.append(stats.PanelRow(wp.z, wp.speaker_id, {"addressing": a, **regs}))
    addressed_rows = Counter(party_of[row.group] for row in rows if row.regressors["addressing"])
    unaddressed = [p for p in parties if not addressed_rows[p]]
    if rows and unaddressed:  # addressing and its interactions would not be identified
        rule = cfg.address
        why = (f"no segment labelled {rule.label!r} with yaw in [{rule.yaw_min}, {rule.yaw_max}] "
               f"covers {rule.min_words} or more")
        if len(unaddressed) == len(parties):
            raise DataError(f"no word was addressed: {why} words")
        counts = ", ".join(f"{p} {addressed_rows[p]}" for p in parties)
        raise DataError(f"no word of {' or '.join(unaddressed)} was addressed: {why} of those "
                        f"words; addressed words per party: {counts}")
    return rows, parties, skipped


def margin_cells(parties, result: stats.RegressionResult):
    """``(party, addressing, settings)`` per party: not addressing (0), then addressing (1)."""
    for party in parties:
        yield party, 0, {}
        settings = {"addressing": 1.0}
        if interaction_name(party) in result.regressor_names:
            settings[interaction_name(party)] = 1.0
        yield party, 1, settings


def _result_json(result: stats.RegressionResult) -> dict:
    coef = {}
    for nm in result.regressor_names:
        b = result.coefficients[nm]
        s = result.standard_errors[nm]
        coef[nm] = {
            "estimate": b,
            "std_error": s,
            "ci_low": b - stats.Z_95 * s,
            "ci_high": b + stats.Z_95 * s,
        }
    return {
        "coefficients": coef,
        "n_obs": result.n_obs,
        "n_groups": result.n_groups,
        "deviance": result.deviance,
        "log_likelihood": result.log_likelihood if math.isfinite(result.log_likelihood) else None,
    }


def cmd_regress(args, cfg: RunConfig) -> int:
    out_dir = Path(args.out)
    parties = None
    if args.panel is not None:
        regressors = [c.strip() for c in args.x.split(",")] if args.x else None
        rows = ingest.load_panel(args.panel, args.y, args.group, regressors)
    else:
        rows, parties, skipped = build_panel(ingest.CorpusIndex(args.index), cfg)
        if skipped:
            print(f"note: {skipped} words without pitch left out")
    result = stats.fe_regress(rows, allow_single_group=args.allow_single_group)

    with ingest.writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "regression.json").write_bytes(ingest._json_bytes(_result_json(result)))
        (out_dir / "regression.txt").write_text(stats.render_result_table(result), encoding="utf-8")

    if parties is not None:
        cells = list(margin_cells(parties, result))
        margins = stats.margins(result, [(party, settings) for party, _, settings in cells])
        ingest.write_csv(
            out_dir / "margins.csv",
            "party,addressing,predicted,ci_low,ci_high",
            [
                (party, a, m.predicted, m.ci_low, m.ci_high)
                for (party, a, _), m in zip(cells, margins, strict=True)
            ],
        )
    print(f"n={result.n_obs} groups={result.n_groups} -> {out_dir}")
    return 0


def cmd_fw(args, cfg: RunConfig) -> int:
    if args.counts_a is not None or args.counts_b is not None:
        if not (args.counts_a and args.counts_b):
            raise ValidationError("pass both --counts-a and --counts-b")
        comparisons = [
            ("a_vs_b", ingest.load_counts(args.counts_a), ingest.load_counts(args.counts_b))
        ]
    else:
        index = ingest.CorpusIndex(args.index)
        party_of = speaker_parties(index, cfg)
        segments = session_segments(index, cfg)
        streams = [index.load_session(sid).words for sid in index.session_ids()]
        split = stats.four_situation_split(
            streams, segments, party_of, target_party=cfg.target_party
        )
        named = {
            cell.replace("target", cfg.target_party): counts
            for cell, counts in split.cells().items()
        }
        comparisons = [
            (name, named[name], sum((c for other, c in named.items() if other != name), Counter()))
            for name in sorted(named)
        ]

    rows = [
        (name, s.word, s.count_a, s.count_b, s.delta, s.variance, s.z)
        for name, counts, rest in comparisons
        for s in stats.fightin_words(counts, rest, prior_scale=cfg.prior_scale)
    ]
    ingest.write_csv(args.out, "situation,word,count,count_rest,delta,variance,z", rows)
    print(f"{len(rows)} scores -> {args.out}")
    return 0


def cmd_advise(args, cfg: RunConfig) -> int:
    query = latent.StrategyQuery(
        latent.DataKind(args.data),
        None if args.representation is None else latent.Representation(args.representation),
        None if args.integration is None else latent.Integration(args.integration),
    )
    for strategy in latent.advise(query):
        print(f"{strategy.name} — {strategy.summary}")
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    doc = _read_json(args.spec, "spec") if args.spec is not None else {}
    spec = _settings(synth.SynthSpec, doc, args, f"spec {args.spec}")
    print(synth.synth_corpus(spec, args.out))
    return 0


# --- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Bad arguments go through :func:`main`'s one-line path, exit 2; subparsers inherit this."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modalign",
        description="Align words, pitch, and gaze on a shared timeline and analyze the result.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file (flags win over it)")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="threads the pitch tracker runs on (default: the usable CPUs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a corpus into an on-disk index")
    p.add_argument("--manifest", required=True, metavar="PATH", help="corpus manifest JSON")
    p.add_argument("--out", required=True, metavar="DIR", help="index directory to write")
    p.set_defaults(func=cmd_ingest)

    def pitch_flags(p):
        p.add_argument("--frame-length", dest="frame_length", type=int, metavar="SAMPLES",
                       help="analysis frame length in samples")
        p.add_argument("--hop", type=int, metavar="SAMPLES", help="hop between frames in samples")
        p.add_argument("--threshold", type=float, metavar="X",
                       help="voicing threshold on the normalized difference (dimensionless)")
        p.add_argument("--floor", type=float, metavar="HZ", help="search floor in Hz (overrides gender band)")
        p.add_argument("--ceiling", type=float, metavar="HZ", help="search ceiling in Hz (overrides gender band)")

    def address_flags(p):
        p.add_argument("--yaw-min", dest="yaw_min", type=float, metavar="DEG",
                       help="lower edge of the addressing yaw band in degrees")
        p.add_argument("--yaw-max", dest="yaw_max", type=float, metavar="DEG",
                       help="upper edge of the addressing yaw band in degrees")
        p.add_argument("--notes-pitch", dest="notes_pitch_threshold", type=float, metavar="DEG",
                       help="pitch angle in degrees below which the speaker is reading notes")
        p.add_argument("--min-words", dest="min_words", type=int, metavar="N",
                       help="minimum words a segment must cover")
        p.add_argument("--label", metavar="NAME", help="label stamped on detected segments")

    p = sub.add_parser("pitch", help="per-word pitch with per-speaker z-scores")
    p.add_argument("--index", required=True, metavar="DIR", help="corpus index directory")
    p.add_argument("--out", required=True, metavar="CSV", help="word-pitch CSV to write")
    pitch_flags(p)
    p.set_defaults(func=cmd_pitch)

    p = sub.add_parser("segments", help="detect address segments from gaze traces")
    p.add_argument("--index", required=True, metavar="DIR", help="corpus index directory")
    p.add_argument("--out", required=True, metavar="CSV", help="segments CSV to write")
    address_flags(p)
    p.set_defaults(func=cmd_segments)

    p = sub.add_parser("align", help="interval-join two element streams")
    p.add_argument("--index", required=True, metavar="DIR", help="corpus index directory")
    p.add_argument("--source", choices=("text", "segments"), default="text", help="source stream")
    p.add_argument("--target", choices=("text", "segments"), default="segments", help="target stream")
    p.add_argument("--min-overlap", dest="min_overlap", type=float, default=0.0, metavar="SECONDS",
                   help="pairs must overlap strictly more than this many seconds")
    p.add_argument("--out", required=True, metavar="CSV", help="alignment pairs CSV to write")
    address_flags(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("query", help="select elements overlapping a condition on another modality")
    p.add_argument("--index", required=True, metavar="DIR", help="corpus index directory")
    p.add_argument("--select", required=True, metavar="MODALITY",
                   help="modality to return: text, or derived (also named gaze or segments)")
    p.add_argument("--where", required=True, metavar="EXPR",
                   help="filter like gaze.label==AfD on the other modality")
    p.add_argument("--out", required=True, metavar="CSV", help="matching elements CSV to write")
    address_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("regress", help="fixed-effects regression of pitch on addressing")
    p.add_argument("--index", metavar="DIR", help="corpus index directory")
    p.add_argument("--panel", metavar="CSV", help="regress a prepared panel CSV instead of an index")
    p.add_argument("--y", metavar="COL", default="y", help="outcome column (panel mode)")
    p.add_argument("--group", metavar="COL", default="group", help="fixed-effect group column (panel mode)")
    p.add_argument("--x", metavar="COLS", help="comma-separated regressor columns (panel mode; default: rest)")
    p.add_argument("--target-party", dest="target_party", metavar="NAME",
                   help="party whose addressing anchors the interaction baseline")
    p.add_argument("--allow-single-group", dest="allow_single_group", action="store_true",
                   help="permit a panel with a single group")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for results JSON/table/margins")
    pitch_flags(p)
    address_flags(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("fw", help="log-odds lexical comparison across the four addressing situations")
    p.add_argument("--index", metavar="DIR", help="corpus index directory")
    p.add_argument("--counts-a", dest="counts_a", metavar="CSV", help="word,count CSV for group a")
    p.add_argument("--counts-b", dest="counts_b", metavar="CSV", help="word,count CSV for group b")
    p.add_argument("--prior", dest="prior_scale", type=float, metavar="X",
                   help="total Dirichlet prior mass (dimensionless)")
    p.add_argument("--target-party", dest="target_party", metavar="NAME",
                   help="party defining the target audience")
    p.add_argument("--out", required=True, metavar="CSV", help="z-score CSV to write")
    address_flags(p)
    p.set_defaults(func=cmd_fw)

    p = sub.add_parser("advise", help="recommend alignment strategies for a problem shape")
    p.add_argument("--data", required=True, choices=[k.value for k in latent.DataKind],
                   help="are the modality's elements continuous signals or discrete units")
    p.add_argument("--representation", choices=[r.value for r in latent.Representation],
                   help="does correspondence ride on shared meaning (discrete only)")
    p.add_argument("--integration", choices=[i.value for i in latent.Integration],
                   help="is the mapping produced explicitly or absorbed by a model (discrete only)")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted ground truth")
    p.add_argument("--out", required=True, metavar="DIR", help="corpus directory to write")
    p.add_argument("--spec", metavar="PATH", help="SynthSpec JSON (flags win over it)")
    p.add_argument("--seed", type=int, metavar="N", help="random seed")
    p.add_argument("--speakers", type=int, metavar="N", help="number of speakers (one session each)")
    p.add_argument("--words", dest="words_per_speech", type=int, metavar="N", help="words per speech")
    p.add_argument("--effect", dest="planted_pitch_effect", type=float, metavar="SD",
                   help="planted pitch boost inside segments, in speaker-SD units")
    p.add_argument("--density", dest="segment_density", type=float, metavar="FRACTION",
                   help="target fraction of words inside address segments")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = _read_json(args.config, "config") if args.config else {}
        cfg = _settings(RunConfig, doc, args, f"config {args.config}")
        if args.command == "regress" and (args.index is None) == (args.panel is None):
            raise ValidationError("pass exactly one of --index or --panel")
        if args.command == "fw" and args.index is None and args.counts_a is None:
            raise ValidationError("pass --index or --counts-a/--counts-b")
        if args.command == "fw" and args.index is not None and (args.counts_a or args.counts_b):
            raise ValidationError("pass --index or --counts-a/--counts-b, not both")
        return args.func(args, cfg)
    except EngineError as e:
        # one line even when a message quotes a file name holding a line break
        print(" ".join(f"{type(e).__name__}: {e}".splitlines()), file=sys.stderr)
        return 3 if isinstance(e, DataError) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
