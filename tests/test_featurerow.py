"""The feature row schema: ``features.csv`` columns and a numpy-free module."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from opgaze.featurerow import (
    CATEGORICAL_FEATURES,
    FEATURES_HEADER,
    SCALAR_FEATURES,
    FeatureVector,
    feature_row,
)

MODULE = Path(__file__).resolve().parents[1] / "src" / "opgaze" / "featurerow.py"


def test_features_header_is_unchanged():
    assert FEATURES_HEADER == (
        "session_id", "ou_index", "hotspot_id", "step_id",
        "dur_gazing", "dur_approaching", "dur_operating",
        "ratio_gazing", "ratio_approaching", "ratio_operating",
        "operating_mean_dist",
        "gazing_sign_changes", "gazing_mean_speed", "gazing_dist_var",
        "approaching_sign_changes", "approaching_mean_speed", "approaching_dist_var",
        "operating_sign_changes", "operating_mean_speed", "operating_dist_var",
        "corr_attention_hand", "attention_lead_lag", "early_shift_ratio",
        "gaze_pattern", "shift_kind", "undefined_reasons",
    )
    assert FEATURES_HEADER[4:23] == SCALAR_FEATURES
    assert FEATURES_HEADER[23:25] == CATEGORICAL_FEATURES


def test_feature_row_follows_the_header():
    fv = FeatureVector(
        ou_index=3, hotspot_id=None, step_id="s2",
        dur_gazing=1.0, dur_approaching=0.0, dur_operating=1.0,
        ratio_gazing=0.5, ratio_approaching=0.0, ratio_operating=0.5,
        gazing_sign_changes=2.0, gaze_pattern="shift", shift_kind="undefined",
        undefined={"shift_kind": "no_hotspot", "early_shift_ratio": "no_hotspot"},
    )
    row = feature_row("sess", fv)
    assert len(row) == len(FEATURES_HEADER)
    cells = dict(zip(FEATURES_HEADER, row))
    assert (cells["session_id"], cells["ou_index"], cells["step_id"]) == ("sess", 3, "s2")
    assert cells["gazing_sign_changes"] == 2.0 and cells["gazing_mean_speed"] is None
    assert cells["undefined_reasons"] == "early_shift_ratio=no_hotspot;shift_kind=no_hotspot"


def test_module_imports_the_standard_library_only():
    # parsed, not imported: importing any opgaze module loads numpy
    # through the package's __init__
    imported = []
    for node in ast.walk(ast.parse(MODULE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.append(node.module)
    assert imported
    outside = [name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names | {"__future__"}]
    assert outside == []
