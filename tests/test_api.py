"""The public API: the names fitt exports and the signature of each.

A change that moves a public name or a signature fails here, so a change
that means to keep the API shows that it did.  An exception class has no
signature of its own; its base class is pinned instead."""

import inspect

import fitt

SIGNATURES = {
    'ChartAlgebra': '(r, algebra)',
    'CoefficientField': '(characteristic: \'int\' = 0) -> "\'CoefficientField\'"',
    'Ideal': "(ring: 'PolyRing', generators: 'Iterable[Polynomial]' = ())",
    'MonomialOrder': "(kind: 'str', block: 'frozenset[int]' = frozenset()) -> 'None'",
    'PolyRing': '(field: \'CoefficientField\', variables: \'Iterable[str]\') -> "\'PolyRing\'"',
    'Polynomial': "(ring: 'PolyRing', terms: 'dict[Monomial, Coeff]')",
    'PresentedAlgebra': '(ring: \'PolyRing\', relations: \'Ideal\') -> "\'PresentedAlgebra\'"',
    'PresentedModule': '(algebra: \'PresentedAlgebra\', matrix: \'Matrix\', row_labels: \'tuple[str, ...]\') -> "\'PresentedModule\'"',
    'ReesParams': '(p, n, s, l, v)',
    'ReesParamsError': 'subclass of ValueError',
    'VerificationReport': "(params: 'ReesParams', policy: 'str', index_used: 'int', charts: 'Optional[list[ChartCheck]]' = None, micali_ok: 'Optional[bool]' = None, corollary_ok: 'Optional[bool]' = None, image_ok: 'Optional[bool]' = None, reason: 'Optional[str]' = None) -> 'None'",
    'base_change': "(module: 'PresentedModule', mapping: 'Mapping[str, Polynomial]', target: 'Optional[PolyRing]' = None) -> 'PresentedModule'",
    'chart_presentation': "(params: 'ReesParams', r: 'int') -> 'ChartAlgebra'",
    'check_corollary42': "(params: 'ReesParams', policy: 'Policy' = 'corrected') -> 'bool'",
    'check_image_equals_center': "(params: 'ReesParams', policy: 'Policy' = 'corrected') -> 'bool'",
    'check_nonnormal': "(p: 'int') -> 'bool'",
    'check_theorem41': "(params: 'ReesParams', policy: 'Policy' = 'corrected') -> 'VerificationReport'",
    'default_grid': "() -> 'list[ReesParams]'",
    'direct_sum_free': "(module: 'PresentedModule', rank: 'int') -> 'PresentedModule'",
    'eliminate': "(I: 'Ideal', block: 'Iterable[Union[str, int]]') -> 'Ideal'",
    'exceptional_ideal': "(params: 'ReesParams') -> 'Ideal'",
    'field_inverse': "(a: 'Coeff', field: 'CoefficientField') -> 'Coeff'",
    'fitting_ideal': "(module: 'PresentedModule', i: 'int') -> 'Ideal'",
    'fitting_index': "(params: 'ReesParams', policy: 'Policy') -> 'int'",
    'free_module': "(algebra: 'PresentedAlgebra', rank: 'int', labels: 'Optional[Sequence[str]]' = None) -> 'PresentedModule'",
    'ideal_equal': "(I: 'Ideal', J: 'Ideal') -> 'bool'",
    'ideal_intersect': "(I: 'Ideal', J: 'Ideal') -> 'Ideal'",
    'ideal_member': "(f: 'Polynomial', I: 'Ideal', order: 'MonomialOrder' = MonomialOrder(kind='grevlex', block=frozenset())) -> 'bool'",
    'kaehler_fitting': "(algebra: 'PresentedAlgebra', i: 'int') -> 'Ideal'",
    'kaehler_presentation': "(algebra: 'PresentedAlgebra') -> 'PresentedModule'",
    'localized_equal': "(I: 'Ideal', J: 'Ideal', g: 'Polynomial') -> 'bool'",
    'micali_kernel': "(params: 'ReesParams') -> 'Ideal'",
    'minors': "(matrix: 'Sequence[Sequence[Polynomial]]', k: 'int', ring: 'Optional[PolyRing]' = None) -> 'list[Polynomial]'",
    'parse_polynomial': "(text: 'str', ring: 'PolyRing') -> 'Polynomial'",
    'print_polynomial': "(f: 'Polynomial', order: 'MonomialOrder' = MonomialOrder(kind='grevlex', block=frozenset())) -> 'str'",
    'reduce': "(f: 'Polynomial', basis: 'Sequence[Polynomial]', order: 'MonomialOrder' = MonomialOrder(kind='grevlex', block=frozenset())) -> 'Polynomial'",
    'rees_presentation': "(params: 'ReesParams') -> 'PresentedAlgebra'",
    'run_grid': "(grid: 'Sequence[ReesParams]', policy: 'Policy' = 'corrected', workers: 'int' = 1) -> 'list[VerificationReport]'",
    'run_properties': "(seed: 'int' = 20240915) -> 'list[SuiteResult]'",
    'saturate': "(I: 'Ideal', g: 'Polynomial') -> 'Ideal'",
    'target_ideal': "(params: 'ReesParams') -> 'Ideal'",
}


def _signature(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, Exception):
        return f"subclass of {obj.__base__.__name__}"
    return str(inspect.signature(obj))


def test_the_exported_names_are_pinned():
    assert sorted(fitt.__all__) == sorted([*SIGNATURES, "__version__"])


def test_every_exported_callable_keeps_its_signature():
    assert {name: _signature(getattr(fitt, name)) for name in SIGNATURES} == SIGNATURES
